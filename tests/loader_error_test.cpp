// Tests that LoadEdgeList reports malformed input loudly — path, 1-based
// line number, and the offending line — instead of silently dropping lines
// or feeding wrapped strtoull output into the builder.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "graph/io.h"

namespace grw {
namespace {

class LoaderErrorTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  void WriteFile(const std::string& content) {
    // One file per test: ctest runs the tests of this binary as parallel
    // processes, and a shared name lets one test read another's input.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = (std::filesystem::temp_directory_path() /
             ("grw_loader_error_" + name + ".txt"))
                .string();
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
              content.size());
    std::fclose(f);
  }

  // Loads and returns the thrown message (fails the test if no throw).
  std::string LoadExpectingError(const std::string& content) {
    WriteFile(content);
    try {
      (void)LoadEdgeList(path_, /*largest_cc=*/false);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    ADD_FAILURE() << "LoadEdgeList accepted malformed input: " << content;
    return "";
  }

  std::string path_;
};

TEST_F(LoaderErrorTest, OverflowingIdReportsPathAndLine) {
  const std::string msg =
      LoadExpectingError("1 2\n2 3\n99999999999999999999999999 4\n");
  EXPECT_NE(msg.find(path_), std::string::npos) << msg;
  EXPECT_NE(msg.find(":3:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("overflow"), std::string::npos) << msg;
}

TEST_F(LoaderErrorTest, NegativeIdRejected) {
  // strtoull would silently wrap "-5" to 2^64-5; that id must not reach
  // the builder.
  const std::string msg = LoadExpectingError("1 2\n-5 3\n");
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sign"), std::string::npos) << msg;
}

TEST_F(LoaderErrorTest, SignHiddenBehindOddWhitespaceRejected) {
  // strtoull's own whitespace skip covers \v and \f; a sign hiding behind
  // them must still be caught, not silently wrapped.
  const std::string msg = LoadExpectingError("1 2\n1 \v-2\n");
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sign"), std::string::npos) << msg;
}

TEST_F(LoaderErrorTest, NonNumericLineRejected) {
  const std::string msg = LoadExpectingError("1 2\nfoo bar\n");
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("foo bar"), std::string::npos) << msg;
}

TEST_F(LoaderErrorTest, MissingSecondIdRejected) {
  const std::string msg = LoadExpectingError("1 2\n7\n");
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
}

TEST_F(LoaderErrorTest, TrailingGarbageRejected) {
  const std::string msg = LoadExpectingError("1 2\n2 3 oops\n");
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("trailing"), std::string::npos) << msg;
}

TEST_F(LoaderErrorTest, GarbageGluedToIdRejected) {
  const std::string msg = LoadExpectingError("1 2\n2 3x\n");
  EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
}

TEST_F(LoaderErrorTest, ErrorOnFinalLineWithoutNewline) {
  const std::string msg = LoadExpectingError("1 2\n2 3\nbad line");
  EXPECT_NE(msg.find(":3:"), std::string::npos) << msg;
}

TEST_F(LoaderErrorTest, CleanInputStillLoads) {
  // Comments, blank lines, CRLF endings, tabs, and multiple spaces are all
  // legitimate SNAP-file variation and must keep parsing.
  WriteFile("# comment\n% comment\n\n1 2\r\n2\t3\n3   4\n4 1");
  const Graph g = LoadEdgeList(path_, /*largest_cc=*/false);
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
}

TEST_F(LoaderErrorTest, LineNumbersCountCommentsAndBlanks) {
  const std::string msg =
      LoadExpectingError("# header\n\n1 2\n# mid comment\nbroken\n");
  EXPECT_NE(msg.find(":5:"), std::string::npos) << msg;
}

}  // namespace
}  // namespace grw
