// Protocol-versioning tests (serve/protocol.*): every response leads
// with `"v": 1`, v-less legacy requests still parse (and produce the
// same estimates as explicit v=1), future or malformed versions are
// rejected with a precise error, PING advertises capabilities, and
// unknown top-level request keys fail loudly instead of being ignored.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/scheduler.h"

namespace grw::serve {
namespace {

RequestLimits Limits() {
  RequestLimits limits;
  limits.max_steps = 1'000'000;
  limits.max_chains = 16;
  return limits;
}

bool Parses(const std::string& line) {
  return ParseRequestLine(line, Limits()).request.has_value();
}

std::string ErrorOf(const std::string& line) {
  const ParsedRequest parsed = ParseRequestLine(line, Limits());
  EXPECT_FALSE(parsed.request.has_value()) << line;
  return parsed.error;
}

TEST(ProtocolVersionTest, LegacyVlessRequestsStillParse) {
  EXPECT_TRUE(Parses("PING"));
  EXPECT_TRUE(Parses("LIST"));
  EXPECT_TRUE(Parses("ESTIMATE graph=g k=4"));
}

TEST(ProtocolVersionTest, ExplicitV1AcceptedOnEveryVerb) {
  EXPECT_TRUE(Parses("PING v=1"));
  EXPECT_TRUE(Parses("LIST v=1"));
  EXPECT_TRUE(Parses("ESTIMATE v=1 graph=g k=4"));
  // Position-independent: v= can come after other fields too.
  EXPECT_TRUE(Parses("ESTIMATE graph=g k=4 v=1"));
}

TEST(ProtocolVersionTest, FutureAndBadVersionsAreRejectedByName) {
  for (const char* verb : {"PING", "LIST", "ESTIMATE graph=g k=4"}) {
    const std::string line = std::string(verb) + " v=2";
    EXPECT_EQ(ErrorOf(line),
              "unsupported protocol version v=2 (this server speaks v=1)")
        << line;
    EXPECT_NE(ErrorOf(std::string(verb) + " v=0").find(
                  "unsupported protocol version v=0"),
              std::string::npos);
    EXPECT_NE(ErrorOf(std::string(verb) + " v=banana").find(
                  "field v: invalid integer"),
              std::string::npos);
  }
}

TEST(ProtocolVersionTest, UnknownTopLevelKeysAreRejected) {
  // PING / LIST take only v=; the error names both the field and verb.
  EXPECT_EQ(ErrorOf("PING shard=3"),
            "unknown field 'shard' (verb PING takes only v=)");
  EXPECT_EQ(ErrorOf("LIST verbose=1"),
            "unknown field 'verbose' (verb LIST takes only v=)");
  // ESTIMATE rejects unknown keys too (strict, not ignore-unknown).
  EXPECT_EQ(ErrorOf("ESTIMATE graph=g k=4 turbo=1"),
            "unknown field 'turbo'");
}

TEST(ProtocolVersionTest, EveryResponseLeadsWithTheVersion) {
  const std::string head = "{\"v\": 1";
  EXPECT_EQ(ErrorResponse("boom").rfind(head, 0), 0u);
  EXPECT_EQ(PingResponse(Limits()).rfind(head, 0), 0u);
  EXPECT_EQ(OverloadedResponse("busy", 25.0).rfind(head, 0), 0u);
  EXPECT_EQ(ListResponse({}).rfind(head, 0), 0u);
  // And the field parses back as the integer 1, not just a prefix match.
  const auto doc = ParseJson(PingResponse(Limits()));
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->Find("v"), nullptr);
  EXPECT_EQ(doc->Find("v")->number, 1.0);
}

TEST(ProtocolVersionTest, PingAdvertisesCapabilitiesAndLimits) {
  const auto doc = ParseJson(PingResponse(Limits()));
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->Find("ok")->IsTrue());
  EXPECT_TRUE(doc->Find("pong")->IsTrue());
  const JsonValue* caps = doc->Find("capabilities");
  ASSERT_NE(caps, nullptr);
  // No request field selects a batched kernel; the key stays, false, so
  // v=1 clients that read it still parse the reply.
  const JsonValue* batch = caps->Find("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->type, JsonValue::Type::kBool);
  EXPECT_FALSE(batch->boolean);
  EXPECT_TRUE(caps->Find("crawl")->IsTrue());
  EXPECT_TRUE(caps->Find("sharded")->IsTrue());
  const JsonValue* limits = doc->Find("limits");
  ASSERT_NE(limits, nullptr);
  EXPECT_EQ(limits->Find("max_steps")->number, 1'000'000.0);
  EXPECT_EQ(limits->Find("max_chains")->number, 16.0);
}

// The round trip that matters: a legacy v-less client and a v=1 client
// issuing the same estimate get bit-identical concentrations. Responses
// embed wall-clock timing, so we compare the parsed number *raw text*
// (bit-exact %.17g echo) rather than whole response lines.
TEST(ProtocolVersionTest, LegacyAndV1EstimatesAreBitIdentical) {
  SnapshotRegistry registry;
  registry.RegisterGraph("karate", KarateClub());
  SchedulerOptions options;
  options.workers = 2;
  options.limits = Limits();
  ServeScheduler scheduler(&registry, options);

  const std::string common = "graph=karate k=4 steps=4000 seed=99 chains=4";
  const std::string legacy = scheduler.HandleLine("ESTIMATE " + common);
  const std::string v1 = scheduler.HandleLine("ESTIMATE v=1 " + common);

  const auto a = ParseJson(legacy);
  const auto b = ParseJson(v1);
  ASSERT_TRUE(a.has_value()) << legacy;
  ASSERT_TRUE(b.has_value()) << v1;
  ASSERT_TRUE(a->Find("ok")->IsTrue()) << legacy;
  ASSERT_TRUE(b->Find("ok")->IsTrue()) << v1;
  EXPECT_EQ(a->Find("v")->number, 1.0);
  EXPECT_EQ(b->Find("v")->number, 1.0);

  const JsonValue* ca = a->Find("concentrations");
  const JsonValue* cb = b->Find("concentrations");
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  ASSERT_EQ(ca->items.size(), cb->items.size());
  ASSERT_FALSE(ca->items.empty());
  for (size_t i = 0; i < ca->items.size(); ++i) {
    EXPECT_EQ(ca->items[i].raw, cb->items[i].raw) << "graphlet " << i;
  }
}

}  // namespace
}  // namespace grw::serve
