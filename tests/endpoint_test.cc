// Tests for the endpoint core (src/zltp/endpoint.h): every endpoint type
// must behave the same on both drivers, the reactor over TCP and the
// transport pump over an in-memory pair, and a pumped connection that ends
// must give back its socket while the server lives.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dpf/dpf.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "oram/enclave.h"
#include "oram/storage.h"
#include "pir/two_server.h"
#include "zltp/frontend.h"
#include "zltp/messages.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw::zltp {
namespace {

// Bounds every receive, so that a reply or a hang-up that never comes
// fails the test instead of hanging it.
net::Deadline Budget() {
  return net::Deadline::After(std::chrono::seconds(10));
}

net::Frame Hello(std::uint16_t version, std::vector<Mode> modes) {
  ClientHello hello;
  hello.version = version;
  hello.supported_modes = std::move(modes);
  return Encode(hello);
}

net::Frame Request(std::uint32_t request_id, Bytes body) {
  GetRequest request;
  request.request_id = request_id;
  request.body = std::move(body);
  return Encode(request);
}

// A GetRequest frame too short to decode.
net::Frame UndecodableRequest() {
  return net::Frame{static_cast<std::uint8_t>(MsgType::kGetRequest),
                    Bytes{0x01}};
}

void ExpectError(net::Transport& client, StatusCode code) {
  auto reply = client.Receive(Budget());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto error = DecodeError(*reply);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, code) << error->message;
}

void ExpectHangUp(net::Transport& client) {
  auto next = client.Receive(Budget());
  ASSERT_FALSE(next.ok()) << "frame of type " << int{next->type};
  EXPECT_EQ(next.status().code(), StatusCode::kUnavailable)
      << next.status().ToString();
}

// ------------------------------------------------------------ endpoints
//
// One endpoint type under test, with the requests the cases send it. The
// same object serves both drivers.

class TestEndpoint {
 public:
  virtual ~TestEndpoint() = default;
  virtual Status ServeOnReactor(net::Reactor& reactor,
                                net::TcpListener listener) = 0;
  virtual void ServeConnectionDetached(
      std::unique_ptr<net::Transport> transport) = 0;
  // The mode a ClientHello must offer; unset: the link has no hello.
  virtual std::optional<Mode> mode() const = 0;
  // A request body the endpoint answers, and what its reply must read as.
  virtual Bytes AnsweredBody() = 0;
  virtual Bytes Answer() = 0;
  virtual Bytes Read(const Bytes& reply) { return reply; }
  // A body that parses but whose answer fails, and the code it fails with.
  virtual Bytes FailingBody() = 0;
  virtual StatusCode failing_code() const = 0;
  // A body that does not parse; unset when every body parses.
  virtual std::optional<Bytes> UnparsableBody() = 0;
};

constexpr int kDomainBits = 12;
constexpr std::size_t kRecordSize = 128;

Bytes Record(std::uint64_t index) {
  return Bytes(kRecordSize, static_cast<std::uint8_t>(0x30 + index));
}

class PirEndpoint final : public TestEndpoint {
 public:
  PirEndpoint() : store_(Config()), server_(store_, 0, SerialOptions()) {
    EXPECT_TRUE(store_.Publish("k", ToBytes("v")).ok());
  }

  Status ServeOnReactor(net::Reactor& reactor,
                        net::TcpListener listener) override {
    return server_.ServeOnReactor(reactor, std::move(listener));
  }
  void ServeConnectionDetached(
      std::unique_ptr<net::Transport> transport) override {
    server_.ServeConnectionDetached(std::move(transport));
  }
  std::optional<Mode> mode() const override { return Mode::kTwoServerPir; }
  Bytes AnsweredBody() override { return key_.Serialize(); }
  Bytes Answer() override { return store_.AnswerQuery(key_).value(); }
  Bytes FailingBody() override {
    return pir::MakeIndexQuery(0, kDomainBits + 1).key0.Serialize();
  }
  StatusCode failing_code() const override {
    return StatusCode::kProtocolError;
  }
  std::optional<Bytes> UnparsableBody() override { return Bytes{0xde, 0xad}; }

 private:
  static PirStoreConfig Config() {
    PirStoreConfig config;
    config.domain_bits = kDomainBits;
    config.record_size = kRecordSize;
    config.keyword_seed = Bytes(16, 0x21);
    return config;
  }
  static ServerOptions SerialOptions() {
    ServerOptions options;
    options.num_threads = 1;
    return options;
  }

  PirStore store_;
  ZltpPirServer server_;
  const dpf::DpfKey key_ =
      pir::MakeIndexQuery(store_.mapper().IndexOf("k"), kDomainBits).key0;
};

class EnclaveEndpoint final : public TestEndpoint {
 public:
  EnclaveEndpoint() {
    EXPECT_TRUE(enclave_.Put("k", ToBytes("v")).ok());
  }

  Status ServeOnReactor(net::Reactor& reactor,
                        net::TcpListener listener) override {
    return server_.ServeOnReactor(reactor, std::move(listener));
  }
  void ServeConnectionDetached(
      std::unique_ptr<net::Transport> transport) override {
    server_.ServeConnectionDetached(std::move(transport));
  }
  std::optional<Mode> mode() const override { return Mode::kEnclave; }
  // Every request is freshly sealed, and each reply carries a fresh nonce,
  // so replies compare by what they open to.
  Bytes AnsweredBody() override { return client_.SealGetRequest("k"); }
  Bytes Answer() override { return ToBytes("v"); }
  Bytes Read(const Bytes& reply) override {
    return client_.OpenResponse(reply).value();
  }
  // A ciphertext the enclave rejects: its AEAD tag does not verify.
  Bytes FailingBody() override {
    Bytes sealed = client_.SealGetRequest("k");
    sealed.back() ^= 0x01;
    return sealed;
  }
  StatusCode failing_code() const override {
    return StatusCode::kPermissionDenied;
  }
  std::optional<Bytes> UnparsableBody() override { return std::nullopt; }

 private:
  static oram::EnclaveConfig Config() {
    oram::EnclaveConfig config;
    config.capacity = 16;
    config.value_size = kRecordSize;
    return config;
  }

  oram::MemoryStorage storage_{
      oram::KvEnclave::RequiredStorageBuckets(Config())};
  oram::KvEnclave enclave_{Config(), storage_};
  ZltpEnclaveServer server_{enclave_};
  oram::EnclaveClient client_{enclave_.public_key()};
};

ShardTopology Topology() {
  ShardTopology topology;
  topology.domain_bits = kDomainBits;
  topology.top_bits = 2;
  topology.record_size = kRecordSize;
  return topology;
}

// Shard s of 4 holds the records at the indices ≡ s (mod 4).
std::vector<std::unique_ptr<ShardDataServer>> LoadedShards() {
  std::vector<std::unique_ptr<ShardDataServer>> shards;
  for (std::size_t s = 0; s < Topology().shard_count(); ++s) {
    shards.push_back(std::make_unique<ShardDataServer>(Topology(), s));
    for (std::uint64_t i = s; i < 64; i += 4) {
      EXPECT_TRUE(shards.back()->Load(i, Record(i)).ok());
    }
  }
  return shards;
}

class ShardEndpoint final : public TestEndpoint {
 public:
  Status ServeOnReactor(net::Reactor& reactor,
                        net::TcpListener listener) override {
    return shard().ServeOnReactor(reactor, std::move(listener));
  }
  void ServeConnectionDetached(
      std::unique_ptr<net::Transport> transport) override {
    shard().ServeConnectionDetached(std::move(transport));
  }
  std::optional<Mode> mode() const override { return std::nullopt; }
  Bytes AnsweredBody() override { return key_.Serialize(); }
  Bytes Answer() override { return shard().Answer(key_).value(); }
  // Split one level too high: one domain bit more than this shard's.
  Bytes FailingBody() override {
    const dpf::KeyPair pair = dpf::Generate(0, kDomainBits);
    return dpf::SplitForShards(pair.key0, Topology().top_bits - 1)[0]
        .Serialize();
  }
  StatusCode failing_code() const override {
    return StatusCode::kProtocolError;
  }
  std::optional<Bytes> UnparsableBody() override { return Bytes{0xde, 0xad}; }

 private:
  ShardDataServer& shard() { return *shards_[0]; }

  std::vector<std::unique_ptr<ShardDataServer>> shards_ = LoadedShards();
  const dpf::SubtreeKey key_ = dpf::SplitForShards(
      dpf::Generate(8, kDomainBits).key0, Topology().top_bits)[0];
};

class FrontEndEndpoint final : public TestEndpoint {
 public:
  Status ServeOnReactor(net::Reactor& reactor,
                        net::TcpListener listener) override {
    return frontend_.ServeOnReactor(reactor, std::move(listener));
  }
  void ServeConnectionDetached(
      std::unique_ptr<net::Transport> transport) override {
    frontend_.ServeConnectionDetached(std::move(transport));
  }
  std::optional<Mode> mode() const override { return Mode::kTwoServerPir; }
  Bytes AnsweredBody() override { return key_.Serialize(); }
  // The XOR of every shard's answer to its sub-tree of the key.
  Bytes Answer() override {
    Bytes answer(kRecordSize, 0);
    const std::vector<dpf::SubtreeKey> subkeys =
        dpf::SplitForShards(key_, Topology().top_bits);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      XorInto(answer, shards_[s]->Answer(subkeys[s]).value());
    }
    return answer;
  }
  Bytes FailingBody() override {
    return pir::MakeIndexQuery(0, kDomainBits + 1).key0.Serialize();
  }
  StatusCode failing_code() const override {
    return StatusCode::kProtocolError;
  }
  std::optional<Bytes> UnparsableBody() override { return Bytes{0xde, 0xad}; }

 private:
  ShardFanout Fanout() {
    std::vector<std::unique_ptr<net::Transport>> links;
    for (auto& shard : shards_) {
      net::TransportPair pair = net::CreateInMemoryPair();
      shard->ServeConnectionDetached(std::move(pair.b));
      links.push_back(std::move(pair.a));
    }
    return ShardFanout(Topology(), std::move(links));
  }

  std::vector<std::unique_ptr<ShardDataServer>> shards_ = LoadedShards();
  FrontEndServer frontend_{0, Bytes(16, 0x21), Fanout()};
  const dpf::DpfKey key_ = pir::MakeIndexQuery(5, kDomainBits).key0;
};

enum class Kind { kPir, kEnclave, kShard, kFrontEnd };
enum class Driver { kReactor, kPump };

std::unique_ptr<TestEndpoint> MakeEndpoint(Kind kind) {
  switch (kind) {
    case Kind::kPir:
      return std::make_unique<PirEndpoint>();
    case Kind::kEnclave:
      return std::make_unique<EnclaveEndpoint>();
    case Kind::kShard:
      return std::make_unique<ShardEndpoint>();
    case Kind::kFrontEnd:
      return std::make_unique<FrontEndEndpoint>();
  }
  return nullptr;
}

using Param = std::tuple<Kind, Driver>;

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  static const char* const kKinds[] = {"Pir", "Enclave", "Shard", "FrontEnd"};
  const auto [kind, driver] = info.param;
  return std::string(kKinds[static_cast<int>(kind)]) +
         (driver == Driver::kReactor ? "OverReactor" : "OverPump");
}

// ------------------------------------------------- driver equivalence

class DriverEquivalence : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    endpoint_ = MakeEndpoint(std::get<0>(GetParam()));
    if (std::get<1>(GetParam()) == Driver::kReactor) {
      auto listener = net::TcpListener::Listen(0);
      ASSERT_TRUE(listener.ok()) << listener.status().ToString();
      port_ = listener->bound_port();
      ASSERT_TRUE(endpoint_->ServeOnReactor(reactor_, std::move(*listener))
                      .ok());
      ASSERT_TRUE(reactor_.Start().ok());
    }
  }

  // The serving-contract teardown order: the reactor stops first.
  void TearDown() override {
    reactor_.Stop();
    endpoint_.reset();
  }

  // A fresh connection to the endpoint through this case's driver.
  std::unique_ptr<net::Transport> Dial() {
    if (std::get<1>(GetParam()) == Driver::kReactor) {
      auto conn = net::TcpConnect("127.0.0.1", port_);
      EXPECT_TRUE(conn.ok()) << conn.status().ToString();
      return conn.ok() ? std::move(*conn) : nullptr;
    }
    net::TransportPair pair = net::CreateInMemoryPair();
    endpoint_->ServeConnectionDetached(std::move(pair.b));
    return std::move(pair.a);
  }

  // Dial(), then the hello exchange if the endpoint has one.
  std::unique_ptr<net::Transport> Connect() {
    std::unique_ptr<net::Transport> client = Dial();
    const std::optional<Mode> mode = endpoint_->mode();
    if (client == nullptr || !mode.has_value()) return client;
    EXPECT_TRUE(client->Send(Hello(kProtocolVersion, {*mode})).ok());
    auto reply = client->Receive(Budget());
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    if (!reply.ok()) return nullptr;
    auto hello = DecodeServerHello(*reply);
    EXPECT_TRUE(hello.ok()) << hello.status().ToString();
    if (hello.ok()) {
      EXPECT_EQ(hello->mode, *mode);
    }
    return client;
  }

  // Sends one GetRequest and expects its GetResponse to read as the
  // endpoint's answer.
  void ExpectAnswered(net::Transport& client, std::uint32_t request_id) {
    ASSERT_TRUE(
        client.Send(Request(request_id, endpoint_->AnsweredBody())).ok());
    auto reply = client.Receive(Budget());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto response = DecodeGetResponse(*reply);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->request_id, request_id);
    EXPECT_EQ(endpoint_->Read(response->body), endpoint_->Answer());
  }

  net::Reactor reactor_;  // outlives the endpoint: its callbacks Send here
  std::unique_ptr<TestEndpoint> endpoint_;
  std::uint16_t port_ = 0;
};

// Both drivers' replies match the endpoint's direct answer byte for byte,
// so they match each other (the enclave's, once opened: every sealed reply
// carries a fresh nonce).
TEST_P(DriverEquivalence, AnsweredRequestGetsTheDirectAnswer) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ExpectAnswered(*client, 7);
}

// A shard link has no hello, so there the hello is an undecodable request:
// the same outcome.
TEST_P(DriverEquivalence, Version1HelloGetsProtocolErrorThenHangUp) {
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(Hello(1, {Mode::kTwoServerPir, Mode::kEnclave}))
                  .ok());
  ExpectError(*client, StatusCode::kProtocolError);
  ExpectHangUp(*client);
}

TEST_P(DriverEquivalence, UndecodableRequestGetsProtocolErrorThenHangUp) {
  std::vector<net::Frame> refused = {UndecodableRequest()};
  if (const std::optional<Bytes> body = endpoint_->UnparsableBody()) {
    refused.push_back(Request(3, *body));
  }
  for (const net::Frame& frame : refused) {
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Send(frame).ok());
    ExpectError(*client, StatusCode::kProtocolError);
    ExpectHangUp(*client);
  }
}

TEST_P(DriverEquivalence, FailedAnswerKeepsTheConnectionServing) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(Request(1, endpoint_->FailingBody())).ok());
  ExpectError(*client, endpoint_->failing_code());
  ExpectAnswered(*client, 2);
}

TEST_P(DriverEquivalence, ByeGetsHangUp) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(EncodeBye()).ok());
  ExpectHangUp(*client);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, DriverEquivalence,
    ::testing::Combine(::testing::Values(Kind::kPir, Kind::kEnclave,
                                         Kind::kShard, Kind::kFrontEnd),
                       ::testing::Values(Driver::kReactor, Driver::kPump)),
    ParamName);

// The endpoints with a hello: the shard link has none.
class HelloDriverEquivalence : public DriverEquivalence {};

TEST_P(HelloDriverEquivalence,
       HelloWithoutTheModeGetsFailedPreconditionThenHangUp) {
  auto client = Dial();
  ASSERT_NE(client, nullptr);
  const Mode other = *endpoint_->mode() == Mode::kEnclave
                         ? Mode::kTwoServerPir
                         : Mode::kEnclave;
  ASSERT_TRUE(client->Send(Hello(kProtocolVersion, {other})).ok());
  ExpectError(*client, StatusCode::kFailedPrecondition);
  ExpectHangUp(*client);
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, HelloDriverEquivalence,
    ::testing::Combine(::testing::Values(Kind::kPir, Kind::kEnclave,
                                         Kind::kFrontEnd),
                       ::testing::Values(Driver::kReactor, Driver::kPump)),
    ParamName);

// ------------------------------------------------------- pump teardown

std::size_t OpenFds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// A pumped connection that ends is closed and its socket freed while the
// server lives, not when the server is destroyed.
TEST(PumpTeardown, EndedConnectionsGiveBackTheirSockets) {
  PirEndpoint endpoint;
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const std::size_t fds_at_start = OpenFds();

  for (int i = 0; i < 50; ++i) {
    auto client = net::TcpConnect("127.0.0.1", listener->bound_port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto served = listener->Accept();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    endpoint.ServeConnectionDetached(std::move(*served));
    ASSERT_TRUE(
        (*client)->Send(Hello(kProtocolVersion, {Mode::kTwoServerPir})).ok());
    auto hello = (*client)->Receive(Budget());
    ASSERT_TRUE(hello.ok()) << hello.status().ToString();
    ASSERT_TRUE(DecodeServerHello(*hello).ok());
    ASSERT_TRUE((*client)->Send(EncodeBye()).ok());
  }

  // The server side of each connection closes a moment after its Bye.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (OpenFds() > fds_at_start + 2 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(OpenFds(), fds_at_start + 2);
}

}  // namespace
}  // namespace lw::zltp
