// Tests for the networked sharded deployment (paper §5.2): shard data
// servers, the front-end fan-out, and a full client session against a
// two-logical-server deployment where each logical server is a front-end
// over 2^top_bits shard servers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>

#include "net/faulty.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/rand.h"
#include "zltp/client.h"
#include "zltp/frontend.h"

namespace lw::zltp {

// Holds a shard's batch passes on a gate. It lives outside the anonymous
// namespace because ShardDataServer names it as a friend.
class ShardDataServerTestPeer {
 public:
  static void HoldPassesOn(ShardDataServer& shard,
                           std::shared_ptr<net::Gate> gate) {
    shard.pass_hook_ = [gate = std::move(gate)] { gate->Pass(); };
  }
};

namespace {

ShardTopology SmallTopology() {
  ShardTopology t;
  t.domain_bits = 12;
  t.top_bits = 2;  // 4 shards
  t.record_size = 128;
  return t;
}

// A deployment: shard servers plus the loaded content, addressable by key.
struct Deployment {
  ShardTopology topology = SmallTopology();
  Bytes keyword_seed = Bytes(16, 0x77);
  std::vector<std::unique_ptr<ShardDataServer>> shards;
  pir::KeywordMapper mapper{Bytes(16, 0x77), 12};

  Deployment() {
    for (std::size_t s = 0; s < topology.shard_count(); ++s) {
      shards.push_back(std::make_unique<ShardDataServer>(topology, s));
    }
  }

  Status Publish(std::string_view key, ByteSpan payload) {
    const std::uint64_t index = mapper.IndexOf(key);
    LW_ASSIGN_OR_RETURN(
        const Bytes record,
        pir::PackRecord(mapper.Fingerprint(key), payload,
                        topology.record_size));
    const std::size_t shard =
        static_cast<std::size_t>(index & (topology.shard_count() - 1));
    return shards[shard]->Load(index, record);
  }

  // Wires a fresh fan-out: one in-memory link per shard, each served by a
  // detached shard thread.
  ShardFanout MakeFanout() {
    std::vector<std::unique_ptr<net::Transport>> links;
    for (auto& shard : shards) {
      net::TransportPair pair = net::CreateInMemoryPair();
      shard->ServeConnectionDetached(std::move(pair.b));
      links.push_back(std::move(pair.a));
    }
    return ShardFanout(topology, std::move(links));
  }
};

TEST(ShardDataServer, LoadRejectsForeignIndices) {
  const ShardTopology topology = SmallTopology();
  ShardDataServer shard(topology, /*shard_index=*/1);
  const Bytes record(topology.record_size, 1);
  // Index 5 ≡ 1 (mod 4): ours. Index 6 ≡ 2: foreign.
  EXPECT_TRUE(shard.Load(5, record).ok());
  EXPECT_FALSE(shard.Load(6, record).ok());
  EXPECT_EQ(shard.record_count(), 1u);
}

TEST(ShardDataServer, AnswerRejectsWrongDepth) {
  const ShardTopology topology = SmallTopology();
  ShardDataServer shard(topology, 0);
  const dpf::KeyPair pair = dpf::Generate(1, 12);
  // A sub-key with the wrong remaining depth.
  const auto bad = dpf::SplitForShards(pair.key0, 1);  // depth 11, not 10
  EXPECT_FALSE(shard.Answer(bad[0]).ok());
}

TEST(ShardFanout, MatchesUnshardedAnswer) {
  Deployment deployment;
  Rng rng(4);
  // Publish some records and mirror them into a reference single DB.
  pir::BlobDatabase reference(deployment.topology.domain_bits,
                              deployment.topology.record_size);
  for (int i = 0; i < 40; ++i) {
    const std::string key = "page-" + std::to_string(i);
    const Bytes payload = ToBytes("content-" + std::to_string(i));
    if (!deployment.Publish(key, payload).ok()) continue;
    const std::uint64_t index = deployment.mapper.IndexOf(key);
    const Bytes record =
        pir::PackRecord(deployment.mapper.Fingerprint(key), payload,
                        deployment.topology.record_size)
            .value();
    ASSERT_TRUE(reference.Upsert(index, record).ok());
  }

  ShardFanout fanout = deployment.MakeFanout();
  for (int t = 0; t < 10; ++t) {
    const std::uint64_t target = rng.UniformInt(1 << 12);
    const pir::QueryKeys q = pir::MakeIndexQuery(target, 12);
    auto sharded = fanout.Answer(q.key0);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    std::vector<Bytes> direct;
    reference.AnswerBatch({dpf::SplitForShards(q.key0, 0).front()}, direct);
    EXPECT_EQ(*sharded, direct.front()) << "target " << target;
  }
}

TEST(ShardFanout, RejectsWrongDomain) {
  Deployment deployment;
  ShardFanout fanout = deployment.MakeFanout();
  const pir::QueryKeys q = pir::MakeIndexQuery(0, 10);  // wrong domain
  EXPECT_FALSE(fanout.Answer(q.key0).ok());
}

TEST(FrontEnd, FullClientSessionAgainstShardedDeployment) {
  // Two logical servers (role 0/1), each a front-end over ITS OWN set of
  // shard data servers — the complete §5.2 topology, client-side unchanged.
  Deployment replica0, replica1;
  std::vector<std::string> published;
  for (int i = 0; i < 30; ++i) {
    const std::string key = "article/" + std::to_string(i);
    const Bytes payload = ToBytes("text " + std::to_string(i));
    const Status s0 = replica0.Publish(key, payload);
    const Status s1 = replica1.Publish(key, payload);
    ASSERT_EQ(s0.ok(), s1.ok());
    if (s0.ok()) published.push_back(key);
  }
  ASSERT_GT(published.size(), 25u);

  FrontEndServer frontend0(0, replica0.keyword_seed, replica0.MakeFanout());
  FrontEndServer frontend1(1, replica1.keyword_seed, replica1.MakeFanout());

  net::TransportPair c0 = net::CreateInMemoryPair();
  net::TransportPair c1 = net::CreateInMemoryPair();
  frontend0.ServeConnectionDetached(std::move(c0.b));
  frontend1.ServeConnectionDetached(std::move(c1.b));

  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(
      std::move(c0.a), std::move(c1.a)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->domain_bits(), 12);

  for (const std::string& key : published) {
    auto value = session->PrivateGet(key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.status().ToString();
    EXPECT_EQ(ToString(*value),
              "text " + key.substr(std::string("article/").size()));
  }
  auto missing = session->PrivateGet("never-published");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  session->Close();
}

TEST(FrontEnd, RejectsEnclaveOnlyClient) {
  Deployment deployment;
  FrontEndServer frontend(0, deployment.keyword_seed,
                          deployment.MakeFanout());
  net::TransportPair pair = net::CreateInMemoryPair();
  frontend.ServeConnectionDetached(std::move(pair.b));

  ClientHello hello;
  hello.supported_modes = {Mode::kEnclave};
  ASSERT_TRUE(pair.a->Send(Encode(hello)).ok());
  auto reply = pair.a->Receive();
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(DecodeError(*reply).ok());
}

// A client on protocol version 1 would send single-bit-leaf DPF keys: the
// front-end refuses it at the hello on both serving models.
void ExpectVersion1HelloRefused(net::Transport& client) {
  ClientHello hello;
  hello.version = 1;
  hello.supported_modes = {Mode::kTwoServerPir};
  ASSERT_TRUE(client.Send(Encode(hello)).ok());
  auto reply = client.Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto error = DecodeError(*reply);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, StatusCode::kProtocolError);
}

TEST(FrontEnd, RejectsVersion1HelloOnBothDrivers) {
  Deployment deployment;
  FrontEndServer threaded(0, deployment.keyword_seed,
                          deployment.MakeFanout());
  net::TransportPair pair = net::CreateInMemoryPair();
  threaded.ServeConnectionDetached(std::move(pair.b));
  ExpectVersion1HelloRefused(*pair.a);

  net::Reactor reactor;
  FrontEndServer reactored(0, deployment.keyword_seed,
                           deployment.MakeFanout());
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  ASSERT_TRUE(reactored.ServeOnReactor(reactor, std::move(*listener)).ok());
  ASSERT_TRUE(reactor.Start().ok());
  auto client = net::TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ExpectVersion1HelloRefused(**client);
  EXPECT_FALSE((*client)->Receive().ok());  // error, then hang up
  reactor.Stop();
}

TEST(FrontEnd, TopologySplitBelowTheTreeIsRejected) {
  // Sub-tree keys split the DPF tree, which ends dpf::kLeafBits above the
  // domain: a 2^12 domain splits at most 5 levels deep.
  ShardTopology topology = SmallTopology();
  topology.top_bits = 6;
  EXPECT_THROW(ShardDataServer(topology, 0), InvariantViolation);
  EXPECT_THROW(ShardFanout(topology, {}), InvariantViolation);
}

TEST(FrontEnd, ShardsOverTcp) {
  // The shard links can be real sockets too.
  Deployment deployment;
  ASSERT_TRUE(deployment.Publish("k", ToBytes("v")).ok());

  std::vector<std::unique_ptr<net::Transport>> links;
  std::vector<net::TcpListener> listeners;
  for (std::size_t s = 0; s < deployment.topology.shard_count(); ++s) {
    auto listener = net::TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    listeners.push_back(std::move(*listener));
  }
  std::thread acceptor([&] {
    for (std::size_t s = 0; s < listeners.size(); ++s) {
      auto conn = listeners[s].Accept();
      ASSERT_TRUE(conn.ok());
      deployment.shards[s]->ServeConnectionDetached(std::move(*conn));
    }
  });
  for (auto& listener : listeners) {
    auto conn = net::TcpConnect("127.0.0.1", listener.bound_port());
    ASSERT_TRUE(conn.ok());
    links.push_back(std::move(*conn));
  }
  acceptor.join();

  ShardFanout fanout(deployment.topology, std::move(links));
  const std::uint64_t index = deployment.mapper.IndexOf("k");
  const pir::QueryKeys q = pir::MakeIndexQuery(index, 12);
  auto a0 = fanout.Answer(q.key0);
  ASSERT_TRUE(a0.ok());
  auto a1 = fanout.Answer(q.key1);
  ASSERT_TRUE(a1.ok());
  const Bytes record = pir::CombineAnswers(*a0, *a1).value();
  auto un = pir::UnpackRecord(record);
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(ToString(un->payload), "v");
}

// ------------------------------------------------------ shard batching
//
// Every pass of the shard below waits on a gate until the test opens it.
// The test holds the first pass, queues co-riders behind it, then opens
// the gate: no sleeps and no timing, only the order of events.

constexpr int kCoRiders = 5;  // a page's sub-queries

struct GatedShard {
  ShardTopology topology = SmallTopology();
  ShardDataServer shard{topology, 0};
  std::shared_ptr<net::Gate> gate = std::make_shared<net::Gate>();

  GatedShard() {
    // Shard 0 of 4 owns the indices ≡ 0 (mod 4).
    for (std::uint64_t i = 0; i < 64; ++i) {
      const Bytes record(topology.record_size,
                         static_cast<std::uint8_t>(0x40 + i));
      EXPECT_TRUE(shard.Load(4 * i, record).ok());
    }
    ShardDataServerTestPeer::HoldPassesOn(shard, gate);
  }
  // An early return must not leave the shard's worker parked on the gate.
  ~GatedShard() { gate->Open(); }

  // This shard's sub-tree key of a fresh DPF key for `target`.
  dpf::SubtreeKey Key(std::uint64_t target) const {
    const dpf::KeyPair pair = dpf::Generate(target, topology.domain_bits);
    return dpf::SplitForShards(pair.key0, topology.top_bits)[0];
  }
  // A sub-tree key split one level too high: its sub-domain has one bit
  // more than this shard's.
  dpf::SubtreeKey WrongDepthKey() const {
    const dpf::KeyPair pair = dpf::Generate(0, topology.domain_bits);
    return dpf::SplitForShards(pair.key0, topology.top_bits - 1)[0];
  }
};

net::Frame SubtreeRequest(std::uint32_t request_id,
                          const dpf::SubtreeKey& key) {
  GetRequest request;
  request.request_id = request_id;
  request.body = key.Serialize();
  return Encode(request);
}

// A bounded wait, so that a reply that never comes fails the test instead
// of hanging it.
net::Deadline ReplyBudget() {
  return net::Deadline::After(std::chrono::seconds(30));
}

void ExpectProtocolError(net::Transport& client) {
  auto reply = client.Receive(ReplyBudget());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto error = DecodeError(*reply);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, StatusCode::kProtocolError);
}

// Receives one GetResponse into answers[request_id].
void ReceiveAnswer(net::Transport& client,
                   std::map<std::uint32_t, Bytes>& answers) {
  auto reply = client.Receive(ReplyBudget());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto response = DecodeGetResponse(*reply);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  answers[response->request_id] = std::move(response->body);
}

TEST(ShardBatching, ReactorCoRidersShareOnePassAndWrongDepthFailsAlone) {
  net::Reactor reactor;  // outlives the shard: its callbacks Send here
  GatedShard g;
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  ASSERT_TRUE(g.shard.ServeOnReactor(reactor, std::move(*listener)).ok());
  ASSERT_TRUE(reactor.Start().ok());
  auto client = net::TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());

  std::vector<dpf::SubtreeKey> keys;
  for (int i = 0; i <= kCoRiders; ++i) keys.push_back(g.Key(4 * i + 8));
  ASSERT_TRUE((*client)->Send(SubtreeRequest(0, keys[0])).ok());
  ASSERT_TRUE(g.gate->WaitForArrival(std::chrono::seconds(30)));

  // The co-riders and a wrong-depth key queue behind the held pass. The
  // loop handles one connection's frames in order, so the wrong-depth
  // key's error, sent at admission, arrives after every co-rider ahead of
  // it has queued — and before any pass has finished.
  for (int i = 1; i <= kCoRiders; ++i) {
    ASSERT_TRUE((*client)
                    ->Send(SubtreeRequest(static_cast<std::uint32_t>(i),
                                          keys[static_cast<std::size_t>(i)]))
                    .ok());
  }
  ASSERT_TRUE((*client)->Send(SubtreeRequest(99, g.WrongDepthKey())).ok());
  ExpectProtocolError(**client);
  BatchStats stats = g.shard.batch_stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kCoRiders + 1));

  g.gate->Open();
  std::map<std::uint32_t, Bytes> answers;
  for (int i = 0; i <= kCoRiders; ++i) ReceiveAnswer(**client, answers);
  ASSERT_EQ(answers.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(answers[i], g.shard.Answer(keys[i]).value()) << "query " << i;
  }
  // The held pass, then exactly one more for all the co-riders.
  stats = g.shard.batch_stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kCoRiders + 1));
  reactor.Stop();
}

// The same sequence over one in-memory pair served by the transport pump:
// its reader queues each query and reads on, as the reactor's loop does.
TEST(ShardBatching, PumpedCoRidersShareOnePassAndWrongDepthFailsAlone) {
  GatedShard g;
  net::TransportPair pair = net::CreateInMemoryPair();
  g.shard.ServeConnectionDetached(std::move(pair.b));
  net::Transport& client = *pair.a;

  std::vector<dpf::SubtreeKey> keys;
  for (int i = 0; i <= kCoRiders; ++i) keys.push_back(g.Key(4 * i + 8));
  ASSERT_TRUE(client.Send(SubtreeRequest(0, keys[0])).ok());
  ASSERT_TRUE(g.gate->WaitForArrival(std::chrono::seconds(30)));

  for (int i = 1; i <= kCoRiders; ++i) {
    ASSERT_TRUE(client
                    .Send(SubtreeRequest(static_cast<std::uint32_t>(i),
                                         keys[static_cast<std::size_t>(i)]))
                    .ok());
  }
  ASSERT_TRUE(client.Send(SubtreeRequest(99, g.WrongDepthKey())).ok());
  ExpectProtocolError(client);
  BatchStats stats = g.shard.batch_stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kCoRiders + 1));

  g.gate->Open();
  std::map<std::uint32_t, Bytes> answers;
  for (int i = 0; i <= kCoRiders; ++i) ReceiveAnswer(client, answers);
  ASSERT_EQ(answers.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(answers[i], g.shard.Answer(keys[i]).value()) << "query " << i;
  }
  stats = g.shard.batch_stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kCoRiders + 1));
}

TEST(ShardBatching, ThreadedCoRidersAnsweredAndWrongDepthFailsAlone) {
  GatedShard g;
  // Every co-rider gets its own pumped connection here, so the queries
  // that share the pass come from different connections.
  std::vector<std::unique_ptr<net::Transport>> clients;
  for (int i = 0; i <= kCoRiders + 1; ++i) {
    net::TransportPair pair = net::CreateInMemoryPair();
    g.shard.ServeConnectionDetached(std::move(pair.b));
    clients.push_back(std::move(pair.a));
  }
  net::Transport& bad_client = *clients.back();

  std::vector<dpf::SubtreeKey> keys;
  for (int i = 0; i <= kCoRiders + 1; ++i) keys.push_back(g.Key(4 * i + 8));
  ASSERT_TRUE(clients[0]->Send(SubtreeRequest(0, keys[0])).ok());
  ASSERT_TRUE(g.gate->WaitForArrival(std::chrono::seconds(30)));
  for (int i = 1; i <= kCoRiders; ++i) {
    const auto c = static_cast<std::size_t>(i);
    ASSERT_TRUE(clients[c]
                    ->Send(SubtreeRequest(static_cast<std::uint32_t>(i),
                                          keys[c]))
                    .ok());
  }

  // The wrong-depth key fails at admission while the first pass is still
  // held; its connection stays up and its next query rides too.
  ASSERT_TRUE(bad_client.Send(SubtreeRequest(99, g.WrongDepthKey())).ok());
  ExpectProtocolError(bad_client);
  const auto last = static_cast<std::uint32_t>(kCoRiders + 1);
  ASSERT_TRUE(bad_client.Send(SubtreeRequest(last, keys[last])).ok());

  g.gate->Open();
  std::map<std::uint32_t, Bytes> answers;
  for (auto& client : clients) ReceiveAnswer(*client, answers);
  ASSERT_EQ(answers.size(), keys.size());
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(answers[i], g.shard.Answer(keys[i]).value()) << "query " << i;
  }
  EXPECT_EQ(g.shard.batch_stats().requests,
            static_cast<std::uint64_t>(keys.size()));
}

}  // namespace
}  // namespace lw::zltp
