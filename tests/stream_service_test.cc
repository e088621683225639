// Socket-level coverage of the streaming & approximate service verbs:
// STREAM_TICK drives a windowed tenant's logical clock over the wire,
// SUBSCRIBE pushes threshold-crossing notifications back, and
// EVALUATE ... APPROX returns the sampling estimators' report —
// bit-identical (per the %.17g wire encoding) to running the in-process
// ApproxEvaluator on the same database. Carries the concurrency ctest
// label alongside the other daemon suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "measures/session.h"
#include "service/client.h"
#include "service/server.h"
#include "streaming/approx.h"
#include "test_util.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

struct StreamServer {
  std::shared_ptr<const Schema> schema;
  std::unique_ptr<ServiceServer> server;

  explicit StreamServer(ServiceOptions options) {
    schema = MakeAbcSchema();
    server =
        std::make_unique<ServiceServer>(schema, 0, AbcFds(*schema), options);
    std::string error;
    if (!server->Start(&error)) {
      ADD_FAILURE() << "server start: " << error;
    }
  }

  uint16_t port() const { return server->port(); }
};

ServiceOptions WindowedOptions(WindowSpec::Kind kind, uint64_t size) {
  ServiceOptions options;
  options.session.WithWindow(kind, size);
  return options;
}

std::vector<Value> Row(int64_t a, int64_t b, int64_t c) {
  return {Value(a), Value(b), Value(c)};
}

// A windowed daemon: inserts enter the window, STREAM_TICK slides it, and
// the session's fact count tracks the live window exactly.
TEST(StreamService, StreamTickSlidesTheWindow) {
  StreamServer ts(WindowedOptions(WindowSpec::Kind::kTicks, 3));
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("w", &error)) << error;

  FactId id = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.ApplyInsert("w", Row(i, i, i), &id, &error)) << error;
  }
  // All five arrived at tick 0; the window is (tick-3, tick].
  size_t expired = 0, live = 0;
  ASSERT_TRUE(client.StreamTick("w", 2, &expired, &live, &error)) << error;
  EXPECT_EQ(expired, 0u);
  EXPECT_EQ(live, 5u);
  ASSERT_TRUE(client.StreamTick("w", 4, &expired, &live, &error)) << error;
  EXPECT_EQ(expired, 5u);  // horizon 1 > 0: every tick-0 fact expires
  EXPECT_EQ(live, 0u);
  // New facts arrive at the advanced clock and stay live.
  ASSERT_TRUE(client.ApplyInsert("w", Row(7, 7, 7), &id, &error)) << error;
  ASSERT_TRUE(client.StreamTick("w", 5, &expired, &live, &error)) << error;
  EXPECT_EQ(expired, 0u);
  EXPECT_EQ(live, 1u);
  WireReport report;
  ASSERT_TRUE(client.Evaluate("w", &report, &error)) << error;
  EXPECT_EQ(report.num_facts, 1u);
}

// STREAM_TICK against a daemon started without --window is a BAD_REQUEST,
// not a crash or a silent no-op.
TEST(StreamService, StreamTickWithoutWindowIsRejected) {
  ServiceOptions options;
  StreamServer ts(options);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("plain", &error)) << error;
  size_t expired = 0, live = 0;
  EXPECT_FALSE(client.StreamTick("plain", 1, &expired, &live, &error));
  EXPECT_NE(error.find("BAD_REQUEST"), std::string::npos) << error;
}

// A count-windowed tenant holds at most `size` facts no matter how many
// are inserted; deletes are routed through the window too.
TEST(StreamService, CountWindowBoundsSessionMemory) {
  StreamServer ts(WindowedOptions(WindowSpec::Kind::kCount, 4));
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("c", &error)) << error;
  FactId last = 0;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(client.ApplyInsert("c", Row(i, i % 3, i), &last, &error))
        << error;
  }
  WireReport report;
  ASSERT_TRUE(client.Evaluate("c", &report, &error)) << error;
  EXPECT_EQ(report.num_facts, 4u);
  ASSERT_TRUE(client.ApplyDelete("c", last, &error)) << error;
  ASSERT_TRUE(client.Evaluate("c", &report, &error)) << error;
  EXPECT_EQ(report.num_facts, 3u);
}

// SUBSCRIBE: a watcher gets an up notification when an Apply pushes the
// minimal-subset count over its threshold and a down notification when a
// window slide clears the violations again.
TEST(StreamService, SubscriberSeesThresholdCrossings) {
  StreamServer ts(WindowedOptions(WindowSpec::Kind::kTicks, 2));
  ServiceClient watcher;
  ServiceClient writer;
  std::string error;
  ASSERT_TRUE(watcher.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(writer.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(watcher.Register("s", &error)) << error;

  std::string tag;
  size_t start = 0;
  ASSERT_TRUE(watcher.Subscribe("s", 0.0, &tag, &start, &error)) << error;
  EXPECT_EQ(start, 0u);

  // Two facts violating the FD A -> B: one minimal subset, crossing up.
  FactId id = 0;
  ASSERT_TRUE(writer.ApplyInsert("s", Row(1, 1, 1), &id, &error)) << error;
  ASSERT_TRUE(writer.ApplyInsert("s", Row(1, 2, 1), &id, &error)) << error;
  // Sliding the whole window out clears the count: crossing down.
  size_t expired = 0, live = 0;
  ASSERT_TRUE(writer.StreamTick("s", 10, &expired, &live, &error)) << error;
  EXPECT_EQ(expired, 2u);

  // A round-trip on the watcher connection pulls in everything the server
  // pushed; DrainPushed hands the notifications over in order.
  ASSERT_TRUE(watcher.Ping(&error)) << error;
  std::vector<PushedItem> pushed;
  ASSERT_TRUE(watcher.DrainPushed(tag, &pushed, &error)) << error;
  ASSERT_EQ(pushed.size(), 2u);
  EXPECT_TRUE(pushed[0].up);
  EXPECT_EQ(pushed[0].value, 1.0);
  EXPECT_FALSE(pushed[1].up);
  EXPECT_EQ(pushed[1].value, 0.0);
}

// Repeat-stress twin of SubscriberSeesThresholdCrossings: the ack of a
// mutation is sent only after every crossing it caused was pushed, so once
// the writer holds both acks the watcher's next round-trip must already see
// both pushes — in every round, not just when the scheduler is kind.
TEST(StreamService, AckFollowsSubscriberPushUnderRepetition) {
  StreamServer ts(WindowedOptions(WindowSpec::Kind::kTicks, 2));
  ServiceClient watcher;
  ServiceClient writer;
  std::string error;
  ASSERT_TRUE(watcher.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(writer.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(watcher.Register("s", &error)) << error;
  std::string tag;
  size_t start = 0;
  ASSERT_TRUE(watcher.Subscribe("s", 0.0, &tag, &start, &error)) << error;

  for (int round = 0; round < 100; ++round) {
    FactId id = 0;
    ASSERT_TRUE(writer.ApplyInsert("s", Row(round, 1, 1), &id, &error))
        << error;
    ASSERT_TRUE(writer.ApplyInsert("s", Row(round, 2, 1), &id, &error))
        << error;
    size_t expired = 0, live = 0;
    ASSERT_TRUE(
        writer.StreamTick("s", 10 * (round + 1), &expired, &live, &error))
        << error;
    ASSERT_EQ(expired, 2u);
    ASSERT_TRUE(watcher.Ping(&error)) << error;
    std::vector<PushedItem> pushed;
    ASSERT_TRUE(watcher.DrainPushed(tag, &pushed, &error)) << error;
    ASSERT_EQ(pushed.size(), 2u) << "round " << round;
    EXPECT_TRUE(pushed[0].up);
    EXPECT_FALSE(pushed[1].up);
  }
}

// EVALUATE ... APPROX round-trips the in-process ApproxEvaluator report
// bit-identically (the %.17g wire encoding is exact for binary64).
TEST(StreamService, EvaluateApproxMatchesInProcessEvaluator) {
  ServiceOptions options;
  StreamServer ts(options);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("a", &error)) << error;

  // A corpus large enough that real sampling happens (m = 185 < n = 400),
  // in the subcritical regime (key domain >> n) so the exact reference and
  // the sampled-component repair solves both stay cheap — see approx.h.
  Database corpus(ts.schema);
  {
    Rng rng(31);
    for (size_t i = 0; i < 400; ++i) {
      corpus.Insert(Fact(0, {Value(rng.UniformInt(0, 1199)),
                             Value(rng.UniformInt(0, 1199)),
                             Value(rng.UniformInt(0, 7))}));
    }
  }
  FactId id = 0;
  corpus.ForEachId([&](FactId fid) {
    const Fact& fact = corpus.fact(fid);
    ASSERT_TRUE(client.ApplyInsert("a", fact.values(), &id, &error)) << error;
  });

  WireApproxReport wire;
  ASSERT_TRUE(client.EvaluateApprox("a", 0.1, &wire, &error)) << error;
  EXPECT_EQ(wire.num_facts, 400u);
  EXPECT_EQ(wire.sample_size, 185u);
  EXPECT_LT(wire.sample_fraction, 1.0);

  // In-process reference on an equal database with the daemon's defaults.
  MeasureSession session(ts.schema, AbcFds(*ts.schema));
  const DbHandle handle = session.Register(corpus);
  ApproxEvaluator evaluator(session.detector(), ApproxOptions().WithEps(0.1));
  const ApproxReport reference = session.WithDatabase(
      handle, [&](const Database& db) { return evaluator.Evaluate(db); });
  ASSERT_EQ(wire.estimates.size(), reference.estimates.size());
  for (size_t m = 0; m < wire.estimates.size(); ++m) {
    EXPECT_EQ(wire.estimates[m].name, reference.estimates[m].name);
    EXPECT_EQ(wire.estimates[m].estimate, reference.estimates[m].estimate)
        << wire.estimates[m].name;
    EXPECT_EQ(wire.estimates[m].ci_low, reference.estimates[m].ci_low);
    EXPECT_EQ(wire.estimates[m].ci_high, reference.estimates[m].ci_high);
  }

  // Malformed APPROX arguments are rejected at parse time.
  WireApproxReport bad;
  EXPECT_FALSE(client.EvaluateApprox("a", 1.5, &bad, &error));
  EXPECT_NE(error.find("BAD_REQUEST"), std::string::npos) << error;
}

}  // namespace
}  // namespace dbim
