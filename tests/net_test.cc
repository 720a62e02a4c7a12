// Discrete-event queue and network fabric tests: determinism, bandwidth
// serialization, latency, crash/drop behaviour, traffic accounting.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/event_queue.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace porygon::net {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, EqualTimesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, NestedScheduling) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.ScheduleAt(10, [&] {
    fired.push_back(q.now());
    q.ScheduleAfter(5, [&] { fired.push_back(q.now()); });
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 15}));
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  SimTime fired = -1;
  q.ScheduleAt(100, [&] {
    q.ScheduleAt(50, [&] { fired = q.now(); });  // In the past.
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired, 100);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.ScheduleAt(10, [&] { ++count; });
  q.ScheduleAt(20, [&] { ++count; });
  q.ScheduleAt(30, [&] { ++count; });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
}

class NetFixture : public ::testing::Test {
 protected:
  NetFixture() : network_(&events_, Rng(42)) {
    network_.SetLatency(FromMillis(0.5), 0);
  }
  /// Bytes of `kind` sent by nodes of the default "node" class, from the
  /// registry series (tests that read it enable metrics into registry_).
  uint64_t SentBytes(uint16_t kind) const {
    return registry_.CounterValue(
        "net.sent_bytes",
        {{"class", "node"}, {"role", "node"}, {"kind", std::to_string(kind)}});
  }
  obs::MetricsRegistry registry_;  // Outlives the network that caches it.
  EventQueue events_;
  SimNetwork network_;
};

TEST_F(NetFixture, DeliversMessageWithLatencyAndBandwidth) {
  NodeId a = network_.AddNode({1e6, 1e6});  // 1 MB/s both ways.
  NodeId b = network_.AddNode({1e6, 1e6});
  SimTime delivered_at = -1;
  SharedBytes received;
  network_.SetHandler(b, [&](const Message& m) {
    delivered_at = events_.now();
    received = m.payload;
  });

  Message msg;
  msg.from = a;
  msg.to = b;
  msg.kind = 7;
  msg.payload = ToBytes("hello");
  msg.wire_size = 100000;  // 0.1 s uplink + 0.1 s downlink at 1 MB/s.
  network_.Send(msg);
  events_.RunUntilIdle();

  ASSERT_NE(delivered_at, -1);
  EXPECT_EQ(received, ToBytes("hello"));
  // 100 ms tx + 0.5 ms latency + 100 ms rx = 200.5 ms.
  EXPECT_EQ(delivered_at, FromMillis(200.5));
}

TEST_F(NetFixture, UplinkSerializesConsecutiveSends) {
  NodeId a = network_.AddNode({1e6, 1e9});
  NodeId b = network_.AddNode({1e9, 1e9});
  std::vector<SimTime> deliveries;
  network_.SetHandler(b, [&](const Message&) {
    deliveries.push_back(events_.now());
  });

  for (int i = 0; i < 3; ++i) {
    Message m;
    m.from = a;
    m.to = b;
    m.wire_size = 1000000;  // 1 s each on a 1 MB/s uplink.
    network_.Send(m);
  }
  events_.RunUntilIdle();

  ASSERT_EQ(deliveries.size(), 3u);
  // Sends queue behind each other on the shared uplink.
  EXPECT_GE(deliveries[1] - deliveries[0], FromSeconds(0.99));
  EXPECT_GE(deliveries[2] - deliveries[1], FromSeconds(0.99));
}

TEST_F(NetFixture, CrashedReceiverDropsTraffic) {
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId b = network_.AddNode({1e6, 1e6});
  int received = 0;
  network_.SetHandler(b, [&](const Message&) { ++received; });
  network_.SetCrashed(b, true);

  Message m;
  m.from = a;
  m.to = b;
  m.payload = ToBytes("x");
  network_.Send(m);
  events_.RunUntilIdle();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network_.messages_dropped(), 1u);

  network_.SetCrashed(b, false);
  network_.Send(a, b, 0, ToBytes("y"));
  events_.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

TEST_F(NetFixture, DropFilterCensorsSelectedKinds) {
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId b = network_.AddNode({1e6, 1e6});
  int received = 0;
  network_.SetHandler(b, [&](const Message&) { ++received; });
  network_.SetDropFilter([](const Message& m) { return m.kind == 13; });

  network_.Send(a, b, 13, ToBytes("censored"));
  network_.Send(a, b, 14, ToBytes("allowed"));
  events_.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

TEST_F(NetFixture, TrafficAccountingByKind) {
  network_.EnableMetrics(&registry_, nullptr, nullptr);
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId b = network_.AddNode({1e6, 1e6});
  network_.SetHandler(b, [](const Message&) {});

  network_.Send(a, b, 1, {}, 500);
  network_.Send(a, b, 2, {}, 300);
  network_.Send(a, b, 1, {}, 200);
  events_.RunUntilIdle();

  EXPECT_EQ(network_.StatsFor(a).bytes_sent, 1000u);
  EXPECT_EQ(SentBytes(1), 700u);
  EXPECT_EQ(SentBytes(2), 300u);
  EXPECT_EQ(network_.StatsFor(b).bytes_received, 1000u);
}

TEST_F(NetFixture, SendOverloadBillsThePayloadAndCarriesTheTrace) {
  network_.EnableMetrics(&registry_, nullptr, nullptr);
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId b = network_.AddNode({1e6, 1e6});
  std::vector<Message> received;
  network_.SetHandler(b, [&](const Message& m) { received.push_back(m); });

  const obs::TraceContext trace{7, 3};
  network_.Send(a, b, 4, ToBytes("payload"), 0, trace);  // Bills 7 bytes.
  network_.Send(a, b, 5, ToBytes("xy"), 90);
  events_.RunUntilIdle();

  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].from, a);
  EXPECT_EQ(received[0].to, b);
  EXPECT_EQ(received[0].kind, 4);
  EXPECT_EQ(received[0].payload, ToBytes("payload"));
  EXPECT_EQ(received[0].wire_size, 7u);
  EXPECT_EQ(received[0].trace.trace_id, 7u);
  EXPECT_EQ(received[0].trace.parent_span, 3u);
  EXPECT_EQ(received[1].wire_size, 90u);
  EXPECT_FALSE(received[1].trace.active());
  EXPECT_EQ(SentBytes(4), 7u);
  EXPECT_EQ(SentBytes(5), 90u);
  EXPECT_EQ(network_.StatsFor(a).bytes_sent, 97u);
}

TEST_F(NetFixture, SharedPayloadFansOutFromOneAllocation) {
  NodeId a = network_.AddNode({1e6, 1e6});
  std::vector<NodeId> receivers;
  std::vector<Message> received;
  for (int i = 0; i < 4; ++i) {
    receivers.push_back(network_.AddNode({1e6, 1e6}));
    network_.SetHandler(receivers.back(),
                        [&](const Message& m) { received.push_back(m); });
  }
  const SharedBytes payload = ToBytes("one encoding");
  for (NodeId to : receivers) network_.Send(a, to, 3, payload);
  events_.RunUntilIdle();

  ASSERT_EQ(received.size(), receivers.size());
  for (const Message& m : received) {
    EXPECT_EQ(m.payload, ToBytes("one encoding"));
    EXPECT_EQ(m.payload.data(), payload.data());  // The sender's buffer.
    EXPECT_EQ(m.wire_size, 12u);
  }
}

TEST_F(NetFixture, SharedPayloadIsReleasedOnEveryPath) {
  // One payload per path; each buffer must be freed once the network is
  // done with every copy of it: delivered, dropped at a receiver that
  // crashed in flight, censored by the drop filter, or duplicated by the
  // fault hook and delivered twice.
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId delivered = network_.AddNode({1e6, 1e6});
  NodeId crashes = network_.AddNode({1e6, 1e6});
  NodeId censored = network_.AddNode({1e6, 1e6});
  NodeId duplicated = network_.AddNode({1e6, 1e6});
  std::map<NodeId, int> deliveries;
  for (NodeId n : {delivered, crashes, censored, duplicated}) {
    network_.SetHandler(n, [&](const Message& m) { ++deliveries[m.to]; });
  }
  network_.SetDropFilter([&](const Message& m) { return m.to == censored; });
  network_.SetFaultHook([&](const Message& m) {
    FaultDecision d;
    d.duplicate = m.to == duplicated;
    return d;
  });

  std::vector<std::weak_ptr<const Bytes>> watches;
  for (NodeId to : {delivered, crashes, censored, duplicated}) {
    SharedBytes payload = Bytes(64, static_cast<uint8_t>(to));
    watches.push_back(payload.Watch());
    network_.Send(a, to, 9, std::move(payload), 1000);
  }
  network_.SetCrashed(crashes, true);  // While its copy is in flight.
  // In flight, the network holds the copies it still has to deliver.
  EXPECT_FALSE(watches[0].expired());
  EXPECT_TRUE(watches[2].expired());  // Censored at the send.
  EXPECT_FALSE(watches[3].expired());

  events_.RunUntilIdle();
  EXPECT_EQ(deliveries[delivered], 1);
  EXPECT_EQ(deliveries[crashes], 0);
  EXPECT_EQ(deliveries[censored], 0);
  EXPECT_EQ(deliveries[duplicated], 2);
  for (size_t i = 0; i < watches.size(); ++i) {
    EXPECT_TRUE(watches[i].expired()) << "path " << i;
  }
}

// The prepare hook starts one job per transmitted copy, duplicates
// included, and the job rides to delivery. A job its handler waits on ran
// once; one nobody waits on (a copy dropped in flight, or delivered to a
// handler that ignores it) is dropped unrun. Either way the network
// settles it once the copy is done, so no job keeps the payload alive.
TEST_F(NetFixture, PreparedJobsAreSettledOnEveryPath) {
  runtime::TaskPool pool(0);  // Jobs run only inside their Wait.
  NodeId a = network_.AddNode({1e6, 1e6});
  NodeId waits = network_.AddNode({1e6, 1e6});
  NodeId ignores = network_.AddNode({1e6, 1e6});
  NodeId crashes = network_.AddNode({1e6, 1e6});
  int runs = 0;
  int started = 0;
  network_.SetPrepareHook([&](const Message& m) {
    ++started;
    auto job = std::make_shared<runtime::TaskPool::Job>(
        [&runs, payload = m.payload] { runs += payload.size() > 0 ? 1 : 0; });
    pool.Submit(job);
    return job;
  });
  network_.SetFaultHook([&](const Message& m) {
    FaultDecision d;
    d.duplicate = m.to == waits;
    return d;
  });
  network_.SetHandler(waits, [&](const Message& m) {
    ASSERT_NE(m.prepared, nullptr);
    pool.Wait(m.prepared.get());
  });
  network_.SetHandler(ignores, [](const Message&) {});
  network_.SetHandler(crashes, [](const Message&) {});

  std::vector<std::weak_ptr<const Bytes>> watches;
  for (NodeId to : {waits, ignores, crashes}) {
    SharedBytes payload = Bytes(64, static_cast<uint8_t>(to));
    watches.push_back(payload.Watch());
    network_.Send(a, to, 9, std::move(payload), 1000);
  }
  network_.SetCrashed(crashes, true);  // While its copy is in flight.
  EXPECT_EQ(started, 4);  // The duplicate has a job of its own.
  events_.RunUntilIdle();
  EXPECT_EQ(runs, 2);  // Both copies to `waits`; nothing else ran.
  for (size_t i = 0; i < watches.size(); ++i) {
    EXPECT_TRUE(watches[i].expired()) << "path " << i;
  }
}

}  // namespace
}  // namespace porygon::net
