// Fault-injection tests for the multiplexed shard fan-out.
//
// The fan-out is the front-end's client path: many private GETs pipeline
// across every shard link at once, correlated by request id. These tests
// drive its failure modes with the net/faulty.h decorators and scripted
// shard stubs: a dead shard must fail fast with DEADLINE_EXCEEDED (never
// wedge the front-end), a one-shot shard error must not poison subsequent
// requests, a send failure on one shard must fail only that op while the
// replies other shards still owe it are dropped by id — never
// misattributed — and concurrent ops against slow shards must overlap
// instead of serializing (the bug the old lock-step fan-out had). The
// whole suite runs under the sanitizer legs like every other test binary,
// including TSan (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "net/faulty.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "pir/blob_db.h"
#include "pir/two_server.h"
#include "util/clock.h"
#include "zltp/frontend.h"
#include "zltp/messages.h"

namespace lw::zltp {
namespace {

using std::chrono::milliseconds;

// Sanitizer instrumentation inflates wall-clock overhead by a large
// constant factor; scale the overlap test's injected delays with it so the
// fixed per-operation overhead stays small next to the timing bounds.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kTimeScale = 4;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kTimeScale = 4;
#else
constexpr int kTimeScale = 1;
#endif
#else
constexpr int kTimeScale = 1;
#endif

ShardTopology TwoShardTopology() {
  ShardTopology t;
  t.domain_bits = 10;
  t.top_bits = 1;  // 2 shards
  t.record_size = 64;
  return t;
}

// Spins (real time) until `pred` holds; fan-out completions arrive from
// link reader threads, so cross-thread observation needs a bounded wait.
bool WaitUntil(const std::function<bool()>& pred,
               milliseconds budget = std::chrono::seconds(10)) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Two shard data servers with some content plus a reference unsharded DB,
// so every test can check fan-out answers for correctness, not just codes.
struct TwoShards {
  ShardTopology topology = TwoShardTopology();
  std::vector<std::unique_ptr<ShardDataServer>> shards;
  pir::BlobDatabase reference;

  TwoShards() : reference(topology.domain_bits, topology.record_size) {
    for (std::size_t s = 0; s < topology.shard_count(); ++s) {
      shards.push_back(std::make_unique<ShardDataServer>(topology, s));
    }
    for (std::uint64_t i = 0; i < 32; ++i) {
      Bytes record(topology.record_size,
                   static_cast<std::uint8_t>(0x30 + i));
      const std::size_t shard = i & (topology.shard_count() - 1);
      EXPECT_TRUE(shards[shard]->Load(i, record).ok());
      EXPECT_TRUE(reference.Upsert(i, record).ok());
    }
  }

  // A served in-memory link to shard `s`.
  std::unique_ptr<net::Transport> ServedLink(std::size_t s) {
    net::TransportPair pair = net::CreateInMemoryPair();
    shards[s]->ServeConnectionDetached(std::move(pair.b));
    return std::move(pair.a);
  }

  // A factory dialing fresh served links to shard `s` (the redial path).
  net::TransportFactory RedialFactory(std::size_t s) {
    return [this, s]() -> Result<std::unique_ptr<net::Transport>> {
      return ServedLink(s);
    };
  }

  Bytes DirectAnswer(const dpf::DpfKey& key) {
    std::vector<Bytes> out;
    reference.AnswerBatch({dpf::SplitForShards(key, 0).front()}, out);
    return out.front();
  }
};

TEST(Fanout, DeadShardFailsFastWithDeadlineExceeded) {
  TwoShards deployment;
  FakeClock clock;
  FanoutOptions options;
  options.op_timeout = milliseconds(100);
  options.clock = &clock;

  // Shard 0 answers; shard 1 is dead — its peer end is held but never
  // served, so the link accepts the sub-query and then says nothing.
  std::vector<std::unique_ptr<net::Transport>> links;
  links.push_back(deployment.ServedLink(0));
  net::TransportPair dead = net::CreateInMemoryPair();
  links.push_back(std::move(dead.a));

  ShardFanout fanout(deployment.topology, std::move(links),
                     std::move(options));
  const pir::QueryKeys q =
      pir::MakeIndexQuery(3, deployment.topology.domain_bits);

  std::promise<Result<Bytes>> done;
  auto result = done.get_future();
  fanout.AnswerAsync(q.key0,
                     [&done](Result<Bytes> r) { done.set_value(std::move(r)); });

  // Virtual time passes the op deadline; the expiry sweeper (short real
  // slices under a FakeClock) must fail the op without any shard 1 reply.
  clock.Advance(milliseconds(200));
  ASSERT_EQ(result.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "dead shard wedged the fan-out";
  const Result<Bytes> answer = result.get();
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status().ToString();
}

TEST(Fanout, ConcurrentAnswersOverlapAcrossSlowShards) {
  TwoShards deployment;
  // Both shards are slow: every reply costs one delay of real time. Two
  // concurrent GETs on the old lock-step path would serialize — four
  // delayed receives, >= 4 delays. The multiplexed path pipelines both ops
  // onto both links at once, so each link's reader pays 2 delays and the
  // pair completes in ~2 delays.
  const milliseconds delay{50 * kTimeScale};
  std::vector<std::unique_ptr<net::Transport>> links;
  for (std::size_t s = 0; s < deployment.topology.shard_count(); ++s) {
    links.push_back(std::make_unique<net::DelayTransport>(
        deployment.ServedLink(s), delay));
  }
  ShardFanout fanout(deployment.topology, std::move(links));

  const pir::QueryKeys q0 =
      pir::MakeIndexQuery(5, deployment.topology.domain_bits);
  const pir::QueryKeys q1 =
      pir::MakeIndexQuery(9, deployment.topology.domain_bits);

  Result<Bytes> a0 = UnavailableError("unset");
  Result<Bytes> a1 = UnavailableError("unset");
  const auto start = std::chrono::steady_clock::now();
  std::thread t0([&] { a0 = fanout.Answer(q0.key0); });
  std::thread t1([&] { a1 = fanout.Answer(q1.key0); });
  t0.join();
  t1.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(a0.ok()) << a0.status().ToString();
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(*a0, deployment.DirectAnswer(q0.key0));
  EXPECT_EQ(*a1, deployment.DirectAnswer(q1.key0));
  // Well under the 4-delay serial bound (and comfortably over one delay,
  // so the delays really ran). The margin absorbs CI scheduling noise.
  EXPECT_LT(elapsed, delay * 7 / 2) << "fan-out serialized";
  EXPECT_GE(elapsed, delay * 2 - milliseconds(5));
}

TEST(Fanout, OneShotShardErrorDoesNotPoisonSubsequentRequests) {
  TwoShards deployment;
  // Shard 1 is scripted: it answers the first sub-query with an ErrorMsg.
  // Error frames carry no request id (messages.h), so the stream loses
  // its correlation and the fan-out must close the link and redial — not
  // resynchronize a stream it no longer trusts.
  net::TransportPair scripted = net::CreateInMemoryPair();
  std::thread shard1([peer = std::move(scripted.b)] {
    auto request = peer->Receive();
    ASSERT_TRUE(request.ok());
    ErrorMsg e;
    e.code = StatusCode::kInternal;
    e.message = "injected shard fault";
    (void)peer->Send(Encode(e));
    // The fan-out closes this link; drain until it does.
    while (peer->Receive().ok()) {
    }
  });

  FanoutOptions options;
  options.redial = {deployment.RedialFactory(0), deployment.RedialFactory(1)};
  std::vector<std::unique_ptr<net::Transport>> links;
  links.push_back(deployment.ServedLink(0));
  links.push_back(std::move(scripted.a));
  ShardFanout fanout(deployment.topology, std::move(links),
                     std::move(options));

  const pir::QueryKeys q =
      pir::MakeIndexQuery(7, deployment.topology.domain_bits);
  const Result<Bytes> poisoned = fanout.Answer(q.key0);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal)
      << poisoned.status().ToString();

  // The next request rides the redialed link and must be correct — the
  // regression the old fan-out failed: a one-shot error left the link
  // desynced and every later request read the wrong reply.
  const Result<Bytes> after = fanout.Answer(q.key1);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, deployment.DirectAnswer(q.key1));
  shard1.join();
}

TEST(Fanout, SendFailureOnOneShardFailsOpAndLateRepliesDrop) {
  TwoShards deployment;
  // Shard 1's link dies on its first send (the Dying decorator's budget is
  // consumed by the fan-out reader's eager receive plus this op's send):
  // the op must fail immediately even though shard 0 already owes it a
  // reply — and that reply must be stale-dropped, not left in the pipe to
  // poison the next request (the old fan-out returned early from shard k's
  // send failure with shards 0..k-1 still owing replies).
  FanoutOptions options;
  options.redial = {deployment.RedialFactory(0), deployment.RedialFactory(1)};
  std::vector<std::unique_ptr<net::Transport>> links;
  links.push_back(deployment.ServedLink(0));
  links.push_back(std::make_unique<net::DyingTransport>(
      deployment.ServedLink(1), /*ops_before_death=*/1));
  ShardFanout fanout(deployment.topology, std::move(links),
                     std::move(options));

  const pir::QueryKeys q =
      pir::MakeIndexQuery(11, deployment.topology.domain_bits);
  const Result<Bytes> hit = fanout.Answer(q.key0);
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.status().code(), StatusCode::kUnavailable)
      << hit.status().ToString();

  // After the redial, the fan-out answers correctly again. Shard 0's
  // orphaned reply to the failed op either matched it before the failure
  // or was stale-dropped by id afterwards — in neither case does it leak
  // into this request (which would corrupt the XOR below).
  const Result<Bytes> after = fanout.Answer(q.key1);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, deployment.DirectAnswer(q.key1));
}

TEST(Fanout, OpQueuedWhileLinkResetsRidesTheFreshStream) {
  TwoShards deployment;
  // Shard 1's link dies on its first send, and the pump that ends the dead
  // stream stalls at a gate when it closes it. In that window the stream
  // refuses sends, but its close has not reached the link, which has not
  // yet failed the ops sent on it. An op queued now belongs to the
  // redialed stream: it must ride that stream, not fail with the dead
  // one's ops.
  auto gate = std::make_shared<net::Gate>();
  std::promise<Result<Bytes>> first;
  std::promise<Result<Bytes>> second;
  FanoutOptions options;
  options.redial = {deployment.RedialFactory(0), deployment.RedialFactory(1)};
  std::vector<std::unique_ptr<net::Transport>> links;
  links.push_back(deployment.ServedLink(0));
  links.push_back(std::make_unique<net::GatedCloseTransport>(
      std::make_unique<net::DyingTransport>(deployment.ServedLink(1),
                                            /*ops_before_death=*/1),
      gate));
  ShardFanout fanout(deployment.topology, std::move(links),
                     std::move(options));

  const pir::QueryKeys q =
      pir::MakeIndexQuery(11, deployment.topology.domain_bits);
  fanout.AnswerAsync(q.key0,
                     [&](Result<Bytes> r) { first.set_value(std::move(r)); });
  const bool stalled = gate->WaitForArrival(std::chrono::seconds(10));
  if (stalled) {
    fanout.AnswerAsync(
        q.key1, [&](Result<Bytes> r) { second.set_value(std::move(r)); });
  }
  gate->Open();
  ASSERT_TRUE(stalled) << "shard 1's link never reset";

  const Result<Bytes> hit = first.get_future().get();
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.status().code(), StatusCode::kUnavailable)
      << hit.status().ToString();
  const Result<Bytes> after = second.get_future().get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, deployment.DirectAnswer(q.key1));
}

TEST(Fanout, FlakyShardLinkRecoversViaRedial) {
  TwoShards deployment;
  FanoutOptions options;
  options.redial = {deployment.RedialFactory(0), deployment.RedialFactory(1)};
  std::vector<std::unique_ptr<net::Transport>> links;
  links.push_back(deployment.ServedLink(0));
  links.push_back(std::make_unique<net::FlakyTransport>(
      deployment.ServedLink(1), /*failures=*/2));
  ShardFanout fanout(deployment.topology, std::move(links),
                     std::move(options));

  // The blips race the reader thread, so which op eats them is timing
  // dependent — but within a few attempts the link must have redialed and
  // answers must be correct again.
  const pir::QueryKeys q =
      pir::MakeIndexQuery(13, deployment.topology.domain_bits);
  Result<Bytes> answer = UnavailableError("unset");
  for (int attempt = 0; attempt < 5 && !answer.ok(); ++attempt) {
    answer = fanout.Answer(q.key0);
  }
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(*answer, deployment.DirectAnswer(q.key0));
}

TEST(Fanout, LinkRedialsAgainAfterAFailedRedial) {
  TwoShards deployment;
  // Shard 1's link dies on its first send, and its redial factory fails its
  // first call. A failed dial must not leave the link down for good: the
  // next op that finds it down dials again, and that dial serves it.
  std::atomic<int> shard1_dials{0};
  FanoutOptions options;
  options.redial = {
      deployment.RedialFactory(0),
      [&]() -> Result<std::unique_ptr<net::Transport>> {
        if (shard1_dials.fetch_add(1) == 0) {
          return UnavailableError("injected dial failure");
        }
        return deployment.ServedLink(1);
      }};
  std::vector<std::unique_ptr<net::Transport>> links;
  links.push_back(deployment.ServedLink(0));
  links.push_back(std::make_unique<net::DyingTransport>(
      deployment.ServedLink(1), /*ops_before_death=*/1));
  ShardFanout fanout(deployment.topology, std::move(links),
                     std::move(options));

  // The first op fails with the dead stream, the second with the failed
  // dial; the third rides the second dial.
  const pir::QueryKeys q =
      pir::MakeIndexQuery(19, deployment.topology.domain_bits);
  Result<Bytes> answer = UnavailableError("unset");
  for (int attempt = 0; attempt < 3 && !answer.ok(); ++attempt) {
    answer = fanout.Answer(q.key0);
  }
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(*answer, deployment.DirectAnswer(q.key0));
}

TEST(Fanout, LateReplyIsDroppedNeverMisattributed) {
  TwoShards deployment;
  FakeClock clock;
  FanoutOptions options;
  options.op_timeout = milliseconds(50);
  options.clock = &clock;

  // Shard 1 is scripted: it holds the first reply until told, long past
  // the op deadline, then delivers it — correct bytes, hopelessly late —
  // and serves every later sub-query properly.
  net::TransportPair scripted = net::CreateInMemoryPair();
  std::promise<void> release_late;
  std::future<void> released = release_late.get_future();
  ShardDataServer* shard1_server = deployment.shards[1].get();
  std::thread shard1([peer = std::move(scripted.b), &released,
                      shard1_server] {
    auto serve_one = [&](const net::Frame& f) {
      auto request = DecodeGetRequest(f);
      ASSERT_TRUE(request.ok());
      auto key = dpf::SubtreeKey::Deserialize(request->body);
      ASSERT_TRUE(key.ok());
      auto answer = shard1_server->Answer(*key);
      ASSERT_TRUE(answer.ok());
      GetResponse response;
      response.request_id = request->request_id;
      response.body = std::move(*answer);
      (void)peer->Send(Encode(response));
    };
    auto first = peer->Receive();
    ASSERT_TRUE(first.ok());
    // Bounded wait so a failing test tears down instead of deadlocking.
    if (released.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      return;
    }
    serve_one(*first);  // the late reply
    for (;;) {
      auto next = peer->Receive();
      if (!next.ok()) return;  // fan-out shut down
      serve_one(*next);
    }
  });

  {
    // Inner scope: the fan-out's destructor closes the scripted link,
    // which is what lets the stub's serve loop (and the join below) end.
    std::vector<std::unique_ptr<net::Transport>> links;
    links.push_back(deployment.ServedLink(0));
    links.push_back(std::move(scripted.a));
    ShardFanout fanout(deployment.topology, std::move(links),
                       std::move(options));

    const pir::QueryKeys q =
        pir::MakeIndexQuery(17, deployment.topology.domain_bits);
    std::promise<Result<Bytes>> done;
    auto result = done.get_future();
    fanout.AnswerAsync(
        q.key0, [&done](Result<Bytes> r) { done.set_value(std::move(r)); });
    clock.Advance(milliseconds(100));
    ASSERT_EQ(result.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_EQ(result.get().status().code(), StatusCode::kDeadlineExceeded);

    // Now the stale reply arrives. Correlation by id must drop it — if it
    // were handed to the next op, that op's XOR would combine shard 1's
    // answer for the WRONG query and the bytes below would differ.
    const std::uint64_t drops_before = obs::M().fanout_stale_drops.Value();
    release_late.set_value();
    ASSERT_TRUE(WaitUntil([&] {
      return obs::M().fanout_stale_drops.Value() > drops_before;
    })) << "late reply was not dropped";

    const Result<Bytes> after = fanout.Answer(q.key1);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(*after, deployment.DirectAnswer(q.key1));
  }
  shard1.join();
}

TEST(Fanout, ReactorLinksMatchThreadedLinksOverTcp) {
  // The reply-equivalence check across serving models: the same deployment
  // answered through transport links on the fan-out's pump and through
  // reactor outbound connections must produce byte-identical record shares.
  TwoShards deployment;
  net::Reactor reactor;
  std::vector<ShardFanout::ShardAddr> addrs;
  for (auto& shard : deployment.shards) {
    auto listener = net::TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    addrs.push_back({"127.0.0.1", listener->bound_port()});
    ASSERT_TRUE(shard->ServeOnReactor(reactor, std::move(*listener)).ok());
  }
  ASSERT_TRUE(reactor.Start().ok());
  {
    auto reactor_fanout = ShardFanout::ConnectOnReactor(
        deployment.topology, reactor, addrs);
    ASSERT_TRUE(reactor_fanout.ok()) << reactor_fanout.status().ToString();

    std::vector<std::unique_ptr<net::Transport>> links;
    for (std::size_t s = 0; s < deployment.topology.shard_count(); ++s) {
      links.push_back(deployment.ServedLink(s));
    }
    ShardFanout threaded_fanout(deployment.topology, std::move(links));

    for (std::uint64_t target = 0; target < 8; ++target) {
      const pir::QueryKeys q =
          pir::MakeIndexQuery(target, deployment.topology.domain_bits);
      const Result<Bytes> via_reactor = reactor_fanout->Answer(q.key0);
      const Result<Bytes> via_threads = threaded_fanout.Answer(q.key0);
      ASSERT_TRUE(via_reactor.ok()) << via_reactor.status().ToString();
      ASSERT_TRUE(via_threads.ok()) << via_threads.status().ToString();
      EXPECT_EQ(*via_reactor, *via_threads) << "target " << target;
      EXPECT_EQ(*via_reactor, deployment.DirectAnswer(q.key0));
    }
    // Documented teardown order: stop the reactor first, then destroy the
    // fan-out (scope end), then the reactor object.
    reactor.Stop();
  }
}

TEST(Fanout, ReactorFanoutFailsPendingOpsOnReactorStop) {
  // Stopping the reactor mid-flight must complete pending ops with an
  // error (the outbound conns' on_close path), not leave callers hanging.
  TwoShards deployment;
  net::Reactor reactor;
  // One real listener whose connection never answers: accept via reactor
  // with a swallow-everything handler.
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  net::Reactor::Handler swallow;
  swallow.on_frame = [](net::Reactor::ConnId, net::Frame) {};
  ASSERT_TRUE(
      reactor.AddListener(std::move(*listener), std::move(swallow)).ok());
  ASSERT_TRUE(reactor.Start().ok());
  {
    FanoutOptions options;
    options.op_timeout = milliseconds(0);  // no deadline: only Stop() ends it
    auto fanout = ShardFanout::ConnectOnReactor(
        deployment.topology, reactor,
        {{"127.0.0.1", port}, {"127.0.0.1", port}}, std::move(options));
    ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();

    const pir::QueryKeys q =
        pir::MakeIndexQuery(1, deployment.topology.domain_bits);
    std::promise<Result<Bytes>> done;
    auto result = done.get_future();
    fanout->AnswerAsync(q.key0, [&done](Result<Bytes> r) {
      done.set_value(std::move(r));
    });
    reactor.Stop();
    ASSERT_EQ(result.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "reactor stop left the op pending";
    EXPECT_FALSE(result.get().ok());
  }
}

}  // namespace
}  // namespace lw::zltp
