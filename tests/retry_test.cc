// Resilience layer: retry policy schedules, deadline behaviour under a
// FakeClock (zero wall-clock waits), session redial, and the privacy
// invariant that retried private GETs carry fresh DPF key shares.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/faulty.h"
#include "net/retry.h"
#include "net/transport.h"
#include "oram/enclave.h"
#include "util/clock.h"
#include "zltp/client.h"
#include "zltp/messages.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;
using std::chrono::seconds;

// ------------------------------------------------------- policy mechanics

TEST(RetryPolicyTest, RetryableCodes) {
  EXPECT_TRUE(net::IsRetryable(UnavailableError("x")));
  EXPECT_TRUE(net::IsRetryable(DeadlineExceededError("x")));
  EXPECT_FALSE(net::IsRetryable(Status::Ok()));
  EXPECT_FALSE(net::IsRetryable(NotFoundError("x")));
  EXPECT_FALSE(net::IsRetryable(ProtocolError("x")));
  EXPECT_FALSE(net::IsRetryable(FailedPreconditionError("x")));
}

TEST(RetryPolicyTest, BackoffScheduleWithoutJitterIsExact) {
  net::RetryPolicy policy;
  policy.initial_backoff = milliseconds(10);
  policy.multiplier = 2.0;
  policy.max_backoff = milliseconds(25);
  policy.jitter = 0.0;
  net::Backoff backoff(policy, /*jitter_seed=*/42);
  EXPECT_EQ(backoff.NextDelay(), nanoseconds(milliseconds(10)));
  EXPECT_EQ(backoff.NextDelay(), nanoseconds(milliseconds(20)));
  EXPECT_EQ(backoff.NextDelay(), nanoseconds(milliseconds(25)));  // capped
  EXPECT_EQ(backoff.NextDelay(), nanoseconds(milliseconds(25)));  // stays
}

TEST(RetryPolicyTest, JitterStaysWithinBand) {
  net::RetryPolicy policy;
  policy.initial_backoff = milliseconds(100);
  policy.multiplier = 1.0;
  policy.max_backoff = milliseconds(100);
  policy.jitter = 0.5;
  net::Backoff backoff(policy, /*jitter_seed=*/7);
  for (int i = 0; i < 64; ++i) {
    const nanoseconds d = backoff.NextDelay();
    EXPECT_GE(d, nanoseconds(milliseconds(50)));
    EXPECT_LE(d, nanoseconds(milliseconds(150)));
  }
}

TEST(RetryPolicyTest, BackoffSleepsOnInjectedClock) {
  FakeClock fake;
  net::RetryPolicy policy;
  policy.initial_backoff = seconds(30);  // would be unbearable for real
  policy.max_backoff = seconds(30);
  policy.jitter = 0.0;
  policy.clock = &fake;
  net::Backoff backoff(policy, 1);
  backoff.SleepBeforeRetry();
  EXPECT_EQ(fake.Now(), nanoseconds(seconds(30)));
  EXPECT_EQ(fake.sleep_calls(), 1u);
}

// --------------------------------------------------------- PIR fixtures

zltp::PirStoreConfig StoreConfig() {
  zltp::PirStoreConfig c;
  c.domain_bits = 12;
  c.record_size = 128;
  c.keyword_seed = Bytes(16, 0x5a);
  return c;
}

// Two live PIR servers plus factories that dial fresh in-memory
// connections to them — the shape a real deployment's redial has.
struct TwoServers {
  TwoServers() : store(StoreConfig()), server0(store, 0), server1(store, 1) {}

  net::TransportFactory Dial(int role) {
    zltp::ZltpPirServer& s = role == 0 ? server0 : server1;
    return [&s]() -> Result<std::unique_ptr<net::Transport>> {
      net::TransportPair p = net::CreateInMemoryPair();
      s.ServeConnectionDetached(std::move(p.b));
      return std::move(p.a);
    };
  }

  zltp::PirStore store;
  zltp::ZltpPirServer server0;
  zltp::ZltpPirServer server1;
};

// A traffic sink sees exactly what the session counts, field by field.
void ExpectSinkMirrorsSession(const zltp::TrafficCounters& sink,
                              const zltp::TrafficCounters& session) {
  EXPECT_EQ(sink.bytes_sent, session.bytes_sent);
  EXPECT_EQ(sink.bytes_received, session.bytes_received);
  EXPECT_EQ(sink.requests, session.requests);
  EXPECT_EQ(sink.retries, session.retries);
  EXPECT_EQ(sink.redials, session.redials);
}

// ------------------------------------------------------- establish retry

TEST(SessionRetryTest, EstablishRetriesFailedDial) {
  TwoServers servers;
  ASSERT_TRUE(servers.store.Publish("k", ToBytes("v")).ok());

  FakeClock fake;
  auto dials = std::make_shared<std::atomic<int>>(0);
  net::TransportFactory real_dial0 = servers.Dial(0);

  zltp::EstablishOptions options;
  // First dial attempt is refused; the second goes through.
  options.factory0 =
      [dials, real_dial0]() -> Result<std::unique_ptr<net::Transport>> {
    if (dials->fetch_add(1) == 0) return UnavailableError("dial refused");
    return real_dial0();
  };
  options.factory1 = servers.Dial(1);
  options.retry.max_attempts = 3;
  options.retry.jitter = 0.0;
  options.clock = &fake;

  auto session = zltp::PirSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(dials->load(), 2);
  EXPECT_GE(fake.sleep_calls(), 1u) << "backoff must pace establish retries";
  EXPECT_TRUE(session->PrivateGet("k").ok());
  session->Close();
}

TEST(SessionRetryTest, EstablishExhaustsAttempts) {
  FakeClock fake;
  zltp::EstablishOptions options;
  options.factory0 = []() -> Result<std::unique_ptr<net::Transport>> {
    return UnavailableError("dial refused");
  };
  // Slot 1 never even dials once slot 0 keeps failing.
  options.factory1 = []() -> Result<std::unique_ptr<net::Transport>> {
    return UnavailableError("dial refused");
  };
  options.retry.max_attempts = 3;
  options.retry.jitter = 0.0;
  options.clock = &fake;

  auto session = zltp::PirSession::Establish(std::move(options));
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fake.sleep_calls(), 2u) << "two backoffs between three attempts";
}

// --------------------------------------------- redial + fresh randomness

TEST(SessionRetryTest, GetRetriesAfterCrashWithFreshDpfShares) {
  TwoServers servers;
  ASSERT_TRUE(servers.store.Publish("page", ToBytes("content")).ok());

  FakeClock fake;
  net::FrameLog log0;  // every frame the client puts on the role-0 wire
  auto dials0 = std::make_shared<std::atomic<int>>(0);
  net::TransportFactory real_dial0 = servers.Dial(0);

  zltp::EstablishOptions options;
  options.factory0 =
      [&log0, dials0, real_dial0]() -> Result<std::unique_ptr<net::Transport>> {
    LW_ASSIGN_OR_RETURN(std::unique_ptr<net::Transport> inner, real_dial0());
    std::unique_ptr<net::Transport> t =
        std::make_unique<net::RecordingTransport>(std::move(inner), &log0);
    if (dials0->fetch_add(1) == 0) {
      // First connection survives the hello (2 ops) and the GET send
      // (3rd op), then crashes before the answer arrives.
      t = std::make_unique<net::DyingTransport>(std::move(t), 3);
    }
    return t;
  };
  options.factory1 = servers.Dial(1);
  options.retry.max_attempts = 3;
  options.retry.jitter = 0.0;
  options.clock = &fake;
  zltp::TrafficCounters sink;
  options.traffic_sink = &sink;

  auto session = zltp::PirSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto value = session->PrivateGet("page");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "content");
  EXPECT_EQ(session->traffic().retries, 1u);
  EXPECT_EQ(session->traffic().redials, 1u);
  EXPECT_EQ(session->traffic().requests, 1u) << "one completed private GET";
  ExpectSinkMirrorsSession(sink, session->traffic());

  // The wire saw the query twice (once per attempt). The two sightings
  // must be unlinkable: fresh DPF key shares, not a resend of the same
  // bytes (docs/ROBUSTNESS.md).
  std::vector<Bytes> queries;
  for (const net::Frame& f : log0.Snapshot()) {
    if (f.type != static_cast<std::uint8_t>(zltp::MsgType::kGetRequest)) {
      continue;
    }
    auto request = zltp::DecodeGetRequest(f);
    ASSERT_TRUE(request.ok());
    queries.push_back(request->body);
  }
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_FALSE(queries[0].empty());
  EXPECT_NE(queries[0], queries[1])
      << "retried GET resent identical DPF share bytes — linkable on the wire";

  session->Close();
}

TEST(SessionRetryTest, NoFactoryMeansNoRedial) {
  TwoServers servers;
  ASSERT_TRUE(servers.store.Publish("k", ToBytes("v")).ok());
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  servers.server0.ServeConnectionDetached(std::move(p0.b));
  servers.server1.ServeConnectionDetached(std::move(p1.b));

  FakeClock fake;
  zltp::EstablishOptions options;
  // Dies right after the hello; with no factory the retry loop cannot
  // redial, so the failure surfaces (after dropping the dead pair).
  options.transport0 =
      std::make_unique<net::DyingTransport>(std::move(p0.a), 2);
  options.transport1 = std::move(p1.a);
  options.retry.max_attempts = 5;
  options.retry.jitter = 0.0;
  options.clock = &fake;

  auto session = zltp::PirSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto value = session->PrivateGet("k");
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(session->traffic().retries, 0u);
}

TEST(SessionRetryTest, RedialReverifiesServerRoles) {
  TwoServers servers;
  ASSERT_TRUE(servers.store.Publish("k", ToBytes("v")).ok());

  FakeClock fake;
  auto dials0 = std::make_shared<std::atomic<int>>(0);
  net::TransportFactory dial_role0 = servers.Dial(0);
  net::TransportFactory dial_role1 = servers.Dial(1);

  zltp::EstablishOptions options;
  // The role-0 factory initially reaches server 0 (dying after the hello
  // and the first GET send), but its redial lands on server 1 — a
  // misrouted dial that would put both connections in one trust domain.
  options.factory0 = [dials0, dial_role0,
                      dial_role1]() -> Result<std::unique_ptr<net::Transport>> {
    if (dials0->fetch_add(1) == 0) {
      LW_ASSIGN_OR_RETURN(std::unique_ptr<net::Transport> t, dial_role0());
      return std::unique_ptr<net::Transport>(
          std::make_unique<net::DyingTransport>(std::move(t), 3));
    }
    return dial_role1();
  };
  options.factory1 = dial_role1;
  options.retry.max_attempts = 3;
  options.retry.jitter = 0.0;
  options.clock = &fake;

  auto session = zltp::PirSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto value = session->PrivateGet("k");
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kFailedPrecondition)
      << value.status().ToString();
}

// Turns the first GetResponse it receives into the error frame a server
// sends for a shed request (RESOURCE_EXHAUSTED, with no request id); the
// replies after it pass through as sent.
class ShedFirstReply final : public net::Transport {
 public:
  explicit ShedFirstReply(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  using net::Transport::Receive;
  using net::Transport::Send;

  Status Send(const net::Frame& frame,
              const net::Deadline& deadline) override {
    return inner_->Send(frame, deadline);
  }
  Result<net::Frame> Receive(const net::Deadline& deadline) override {
    LW_ASSIGN_OR_RETURN(net::Frame frame, inner_->Receive(deadline));
    if (!shed_ && frame.type == static_cast<std::uint8_t>(
                                    zltp::MsgType::kGetResponse)) {
      shed_ = true;
      return zltp::Encode(zltp::ErrorMsg{StatusCode::kResourceExhausted,
                                         "batch queue over queue_limit"});
    }
    return frame;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  bool shed_ = false;
};

TEST(SessionRetryTest, ShedReplyInBatchDoesNotReachTheNextOp) {
  TwoServers servers;
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  for (const std::string& key : keys) {
    ASSERT_TRUE(servers.store.Publish(key, ToBytes("v-" + key)).ok());
  }

  auto dials0 = std::make_shared<std::atomic<int>>(0);
  net::TransportFactory real_dial0 = servers.Dial(0);
  zltp::EstablishOptions options;
  // The first role-0 connection sheds the batch's first reply; the batch's
  // other replies are still on that wire when the batch fails.
  options.factory0 =
      [dials0, real_dial0]() -> Result<std::unique_ptr<net::Transport>> {
    LW_ASSIGN_OR_RETURN(std::unique_ptr<net::Transport> t, real_dial0());
    if (dials0->fetch_add(1) == 0) {
      return std::unique_ptr<net::Transport>(
          std::make_unique<ShedFirstReply>(std::move(t)));
    }
    return t;
  };
  options.factory1 = servers.Dial(1);

  auto session = zltp::PirSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto batch = session->PrivateGetBatch(keys);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted)
      << batch.status().ToString();

  // The failed batch dropped both connections, so the next op redials
  // instead of reading the batch's leftover replies as its own.
  auto value = session->PrivateGet("k2");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "v-k2");
  EXPECT_EQ(session->traffic().redials, 1u);
  EXPECT_EQ(session->traffic().retries, 0u);
  session->Close();
}

// ------------------------------------------------- deadlines, fake clock

TEST(SessionRetryTest, SlowPeerHitsDeadlineWithoutRealSleeps) {
  TwoServers servers;
  ASSERT_TRUE(servers.store.Publish("k", ToBytes("v")).ok());
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  servers.server0.ServeConnectionDetached(std::move(p0.b));
  servers.server1.ServeConnectionDetached(std::move(p1.b));

  FakeClock fake;
  zltp::EstablishOptions options;
  // The role-0 peer takes 200ms (of fake time) per answer: fine for the
  // 1s hello budget, fatal for the 100ms op budget.
  options.transport0 =
      std::make_unique<net::DelayTransport>(std::move(p0.a), milliseconds(200));
  options.transport1 = std::move(p1.a);
  options.hello_timeout = seconds(1);
  options.op_timeout = milliseconds(100);
  options.clock = &fake;

  auto session = zltp::PirSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto value = session->PrivateGet("k");
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kDeadlineExceeded)
      << value.status().ToString();
  EXPECT_GE(fake.sleep_calls(), 1u)
      << "the stall must burn fake-clock budget, not wall-clock time";
}

TEST(SessionRetryTest, DeadlineExceededRecoveredByRedial) {
  TwoServers servers;
  ASSERT_TRUE(servers.store.Publish("k", ToBytes("v")).ok());
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  servers.server0.ServeConnectionDetached(std::move(p0.b));
  servers.server1.ServeConnectionDetached(std::move(p1.b));

  FakeClock fake;
  zltp::EstablishOptions options;
  // Initial role-0 connection stalls past any op deadline; the redial
  // (via the factories) reaches a healthy server.
  options.transport0 =
      std::make_unique<net::DelayTransport>(std::move(p0.a), seconds(30));
  options.transport1 = std::move(p1.a);
  options.factory0 = servers.Dial(0);
  options.factory1 = servers.Dial(1);
  options.hello_timeout = std::chrono::minutes(5);
  options.op_timeout = milliseconds(100);
  options.retry.max_attempts = 2;
  options.retry.jitter = 0.0;
  options.clock = &fake;

  auto session = zltp::PirSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto value = session->PrivateGet("k");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "v");
  EXPECT_EQ(session->traffic().retries, 1u);
  EXPECT_EQ(session->traffic().redials, 1u);
  session->Close();
}

// ------------------------------------------------------ traffic mirrors

TEST(SessionRetryTest, TrafficSinkAggregatesAcrossSessions) {
  TwoServers servers;
  ASSERT_TRUE(servers.store.Publish("k", ToBytes("v")).ok());

  zltp::TrafficCounters sink;
  for (int i = 0; i < 2; ++i) {
    zltp::EstablishOptions options;
    options.factory0 = servers.Dial(0);
    options.factory1 = servers.Dial(1);
    options.traffic_sink = &sink;
    auto session = zltp::PirSession::Establish(std::move(options));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE(session->PrivateGet("k").ok());
    session->Close();
  }
  EXPECT_EQ(sink.requests, 2u);
  EXPECT_GT(sink.bytes_sent, 0u);
  EXPECT_GT(sink.bytes_received, 0u);
}

// ------------------------------------------------------------- enclave

TEST(SessionRetryTest, EnclaveSessionRedialsAndReseals) {
  oram::EnclaveConfig config;
  config.capacity = 64;
  config.value_size = 128;
  oram::MemoryStorage storage(oram::KvEnclave::RequiredStorageBuckets(config));
  oram::KvEnclave enclave(config, storage);
  ASSERT_TRUE(enclave.Put("wiki/Uganda", ToBytes("landlocked")).ok());
  zltp::ZltpEnclaveServer server(enclave);

  FakeClock fake;
  auto dials = std::make_shared<std::atomic<int>>(0);
  net::TransportFactory dial =
      [&server]() -> Result<std::unique_ptr<net::Transport>> {
    net::TransportPair p = net::CreateInMemoryPair();
    server.ServeConnectionDetached(std::move(p.b));
    return std::move(p.a);
  };

  zltp::EstablishOptions options;
  options.factory0 =
      [dials, dial]() -> Result<std::unique_ptr<net::Transport>> {
    LW_ASSIGN_OR_RETURN(std::unique_ptr<net::Transport> t, dial());
    if (dials->fetch_add(1) == 0) {
      // Survives the hello and the GET send, dies before the answer.
      return std::unique_ptr<net::Transport>(
          std::make_unique<net::DyingTransport>(std::move(t), 3));
    }
    return t;
  };
  options.retry.max_attempts = 3;
  options.retry.jitter = 0.0;
  options.clock = &fake;
  zltp::TrafficCounters sink;
  options.traffic_sink = &sink;

  auto session = zltp::EnclaveSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto value = session->PrivateGet("wiki/Uganda");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "landlocked");
  EXPECT_EQ(session->traffic().retries, 1u);
  EXPECT_EQ(session->traffic().redials, 1u);
  ExpectSinkMirrorsSession(sink, session->traffic());
  session->Close();
}

TEST(SessionRetryTest, EnclaveMissKeepsTheConnection) {
  oram::EnclaveConfig config;
  config.capacity = 64;
  config.value_size = 128;
  oram::MemoryStorage storage(oram::KvEnclave::RequiredStorageBuckets(config));
  oram::KvEnclave enclave(config, storage);
  ASSERT_TRUE(enclave.Put("wiki/Uganda", ToBytes("landlocked")).ok());
  zltp::ZltpEnclaveServer server(enclave);
  net::TransportPair p = net::CreateInMemoryPair();
  server.ServeConnectionDetached(std::move(p.b));

  // No factory: had a miss dropped the connection, every later op would
  // fail UNAVAILABLE.
  auto session = zltp::EnclaveSession::Establish(
      zltp::EstablishOptions::FromTransports(std::move(p.a)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(session->DummyGet().ok());
  auto miss = session->PrivateGet("wiki/Atlantis");
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound)
      << miss.status().ToString();
  auto hit = session->PrivateGet("wiki/Uganda");
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(ToString(*hit), "landlocked");
  EXPECT_EQ(session->traffic().redials, 0u);
  session->Close();
}

TEST(SessionRetryTest, EnclaveEstablishRetryReachesTrafficSink) {
  oram::EnclaveConfig config;
  config.capacity = 64;
  config.value_size = 128;
  oram::MemoryStorage storage(oram::KvEnclave::RequiredStorageBuckets(config));
  oram::KvEnclave enclave(config, storage);
  zltp::ZltpEnclaveServer server(enclave);

  FakeClock fake;
  auto dials = std::make_shared<std::atomic<int>>(0);
  zltp::TrafficCounters sink;
  zltp::EstablishOptions options;
  // First dial attempt is refused; the second goes through.
  options.factory0 =
      [dials, &server]() -> Result<std::unique_ptr<net::Transport>> {
    if (dials->fetch_add(1) == 0) return UnavailableError("dial refused");
    net::TransportPair p = net::CreateInMemoryPair();
    server.ServeConnectionDetached(std::move(p.b));
    return std::move(p.a);
  };
  options.retry.max_attempts = 3;
  options.retry.jitter = 0.0;
  options.clock = &fake;
  options.traffic_sink = &sink;

  auto session = zltp::EnclaveSession::Establish(std::move(options));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(dials->load(), 2);
  EXPECT_EQ(session->traffic().retries, 1u);
  EXPECT_EQ(sink.retries, 1u);
  session->Close();
}

TEST(SessionRetryTest, EnclaveRejectsSecondServerSlot) {
  net::TransportPair p = net::CreateInMemoryPair();
  net::TransportPair q = net::CreateInMemoryPair();
  zltp::EstablishOptions options;
  options.transport0 = std::move(p.a);
  options.transport1 = std::move(q.a);
  auto session = zltp::EnclaveSession::Establish(std::move(options));
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lw
