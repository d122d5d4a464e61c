#include "zltp/frontend.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <optional>
#include <utility>

#include "net/pump.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace lw::zltp {
namespace {

// Sub-tree keys split the DPF tree, which ends dpf::kLeafBits above the
// domain, so a topology may split no deeper than the tree goes.
void CheckTopology(const ShardTopology& topology) {
  LW_CHECK_MSG(topology.top_bits >= 0 &&
                   topology.top_bits <= dpf::TreeDepth(topology.domain_bits),
               "top_bits out of range for the DPF tree");
}

ServerHello FrontEndHello(std::uint8_t role, Bytes keyword_seed,
                          const ShardTopology& topology) {
  ServerHello hello;
  hello.mode = Mode::kTwoServerPir;
  hello.server_role = role;
  hello.domain_bits = static_cast<std::uint8_t>(topology.domain_bits);
  hello.record_size = static_cast<std::uint32_t>(topology.record_size);
  hello.keyword_seed = std::move(keyword_seed);
  return hello;
}

}  // namespace

// ---------------------------------------------------------- data shard

ShardDataServer::ShardDataServer(const ShardTopology& topology,
                                 std::size_t shard_index)
    : topology_(topology),
      shard_index_(shard_index),
      db_(topology.shard_domain_bits(), topology.record_size),
      // The close rule drains what is queued: the front-end's fan-out
      // delivers a page's sub-queries to every shard as one burst, so a
      // co-rider window would only add its length to every page.
      batcher_(*this, BatchConfig{.max_wait = std::chrono::milliseconds(0)}),
      // Shard links are CDN-internal: bare GetRequest frames, no hello.
      core_({.parse = [this](Bytes body) -> Result<EndpointCore::Answer> {
               auto key = dpf::SubtreeKey::Deserialize(body);
               if (!key.ok()) {
                 return ProtocolError("malformed sub-tree key: " +
                                      key.status().message());
               }
               return EndpointCore::Answer(
                   [this, key = std::move(*key)](
                       EndpointCore::Done done) mutable {
                     batcher_.SubmitAsync(std::move(key), std::move(done));
                   });
             },
             .counters = {.requests = &obs::M().shard_requests}}) {
  CheckTopology(topology);
  LW_CHECK_MSG(shard_index < topology.shard_count(), "shard index range");
}

std::size_t ShardDataServer::record_count() const {
  std::lock_guard<std::mutex> lock(db_mu_);
  return db_.record_count();
}

Status ShardDataServer::Load(std::uint64_t global_index, ByteSpan record) {
  const std::uint64_t mask = topology_.shard_count() - 1;
  if ((global_index & mask) != shard_index_) {
    return InvalidArgumentError("index belongs to a different shard");
  }
  std::lock_guard<std::mutex> lock(db_mu_);
  return db_.Upsert(global_index >> topology_.top_bits, record);
}

Status ShardDataServer::CheckKey(const dpf::SubtreeKey& key) const {
  if (key.domain_bits != topology_.shard_domain_bits()) {
    return ProtocolError("sub-tree key has wrong depth for this shard");
  }
  return Status::Ok();
}

Result<std::vector<Bytes>> ShardDataServer::AnswerBatch(
    const std::vector<dpf::SubtreeKey>& keys, ThreadPool* pool) const {
  for (const dpf::SubtreeKey& key : keys) LW_RETURN_IF_ERROR(CheckKey(key));
  if (pass_hook_) pass_hook_();
  std::vector<Bytes> answers;
  std::lock_guard<std::mutex> lock(db_mu_);
  db_.AnswerBatch(keys, answers, pool);
  return answers;
}

Result<Bytes> ShardDataServer::Answer(const dpf::SubtreeKey& key) const {
  LW_ASSIGN_OR_RETURN(std::vector<Bytes> answers, AnswerBatch({key}));
  return std::move(answers.front());
}

// ------------------------------------------------------------- fan-out
//
// The multiplexed fan-out engine. One Mux owns the pending-op correlation
// table and a Link per shard; ops are keyed by a unique request id that is
// sent to every shard, so a reply is matched to its op no matter when or
// in what order it arrives. Failure containment:
//
//   reply for unknown id      stale (its op already completed) — dropped,
//                             never attributed to another op.
//   wrong record size         the reply correlated, so only that op fails;
//                             the link's framing is intact and stays up.
//   send failure on shard k   that op fails immediately; replies already
//                             owed by shards 0..k-1 are stale-dropped by
//                             id, so the next request is not poisoned.
//   transport error / shard   the stream is desynced (error frames carry
//   error frame               no request id): every op awaiting the link
//                             fails and the link drops the connection; the
//                             next op that needs the link dials a fresh one.
//   per-op deadline           the expiry sweeper fails the op with
//                             DEADLINE_EXCEEDED; a reply that limps in
//                             later is a stale drop.

class ShardFanout::Mux {
 public:
  // One outstanding private GET: the XOR accumulator, which links still
  // owe a reply, the link generation each link queued it under (0 = not
  // yet queued), and the completion callback.
  struct Op {
    Bytes acc;
    std::vector<bool> awaiting;
    std::vector<std::uint64_t> queued_gen;
    std::size_t remaining = 0;
    AnswerCallback done;
    bool has_deadline = false;
    std::chrono::nanoseconds deadline{};
    std::chrono::nanoseconds start{};
  };

  // One shard link: the shard's current connection, on a reactor or on the
  // fan-out's transport pump, and the dial that replaces it. Enqueue never
  // blocks the caller; failures are routed back through FailOp/OnLinkDown.
  // A link-level failure drops the connection, and the next op that finds
  // the link down dials a fresh one: at most one dial per op, so a dead
  // shard costs each op one failed dial, never a reconnect storm. Without
  // a redial, a link that is down stays down and its ops fail fast.
  class Link {
   public:
    using ConnId = net::Connections::ConnId;
    // Starts a connection that calls back into `handler`.
    using DialFn = std::function<Result<ConnId>(net::Connections::Handler)>;

    Link(Mux* mux, std::size_t index, net::Connections& conns, DialFn redial)
        : mux_(mux), index_(index), conns_(conns), redial_(std::move(redial)) {}

    ~Link() { Shutdown(); }

    // Makes the connection `dial` starts the link's connection.
    Status Dial(const DialFn& dial) {
      net::Connections::Handler handler;
      handler.on_frame = [this](ConnId id, net::Frame frame) {
        const Status s = mux_->OnReply(index_, frame);
        // Desynced stream (uncorrelatable shard error frame): fail the ops
        // sent on it and drop the connection.
        if (!s.ok()) Drop(id, s);
      };
      handler.on_close = [this](ConnId id, const Status& why) {
        // A no-op if the connection was dropped already (Shutdown, the
        // error paths).
        Drop(id, why.ok() ? UnavailableError("shard link closed") : why);
        std::lock_guard<std::mutex> lock(mu_);
        --pending_closes_;
        closed_cv_.notify_all();
      };
      // Held across the dial: the connection's callbacks take mu_, so even
      // an on_close that fires before the dial returns finds it stored.
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return UnavailableError("shard link shut down");
      LW_ASSIGN_OR_RETURN(conn_, dial(std::move(handler)));
      ++pending_closes_;
      return Status::Ok();
    }

    void Enqueue(std::uint32_t op_id, const net::Frame& frame) {
      // dial_mu_ serializes redials: two concurrent ops hitting a downed
      // link get one fresh connection, not one each. Never taken by the
      // connection callbacks, so it cannot deadlock against them.
      std::lock_guard<std::mutex> dial_lock(dial_mu_);
      for (bool dialed = false;; dialed = true) {
        ConnId conn = 0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          conn = conn_;
          if (conn != 0) mux_->MarkQueued(op_id, index_, generation_);
        }
        if (conn != 0) {
          const Status sent = conns_.Send(conn, frame);
          if (sent.ok()) return;
          // The connection ended before its close reached this link. The
          // op never went out on it, so it waits for the next connection
          // instead of failing with the ops that did.
          mux_->MarkQueued(op_id, index_, 0);
          Drop(conn, sent);
          if (dialed || !redial_) {
            mux_->FailOp(op_id, index_, sent);
            return;
          }
        } else if (dialed || !redial_) {
          mux_->FailOp(op_id, index_, UnavailableError("shard link down"));
          return;
        }
        const Status redialed = Dial(redial_);
        if (!redialed.ok()) {
          mux_->FailOp(op_id, index_, redialed);
          return;
        }
        obs::M().fanout_redials.Inc();
      }
    }

    void Shutdown() {
      ConnId conn = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) return;
        stopping_ = true;
        conn = std::exchange(conn_, 0);
      }
      // Safe even after reactor.Stop(): a stale id is a no-op.
      if (conn != 0) conns_.Close(conn);
      // Wait for every dialled connection's on_close (the documented
      // teardown order guarantees it comes: either the reactor was already
      // stopped, which drained all conns, or the Close above reaches its
      // host). After this, no callback can touch this link or the mux.
      std::unique_lock<std::mutex> lock(mu_);
      closed_cv_.wait(lock, [this] { return pending_closes_ == 0; });
    }

   private:
    // Drops `id` if it is still the link's connection: ends its generation,
    // so every op queued under it fails with `why`, and closes it (a no-op
    // for a connection already closing).
    void Drop(ConnId id, const Status& why) {
      std::uint64_t dead = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (conn_ != id) return;
        conn_ = 0;
        dead = generation_++;
      }
      mux_->OnLinkDown(index_, dead, why);
      conns_.Close(id);
    }

    Mux* const mux_;
    const std::size_t index_;
    net::Connections& conns_;
    const DialFn redial_;  // null: no redial

    std::mutex dial_mu_;  // held across an Enqueue's dial; taken before mu_
    std::mutex mu_;       // guards the members below
    ConnId conn_ = 0;     // 0: the link is down
    // conn_'s generation; Drop ends it. Ops are marked with the generation
    // they were queued under, so a drop fails only its own.
    std::uint64_t generation_ = 1;
    // Dials whose on_close has not yet been delivered; Shutdown waits for 0.
    int pending_closes_ = 0;
    std::condition_variable closed_cv_;
    bool stopping_ = false;
  };

  Mux(const ShardTopology& topology, FanoutOptions options)
      : topology_(topology),
        options_(std::move(options)),
        clock_(options_.clock != nullptr ? options_.clock : &Clock::Real()) {
    CheckTopology(topology_);
  }

  ~Mux() { Shutdown(); }

  const ShardTopology& topology() const { return topology_; }

  // Adds the next shard's link on `conns`, whose first connection `first`
  // starts. Called once per shard, in shard order, before Seal().
  Status AddLink(net::Connections& conns, Link::DialFn redial,
                 const Link::DialFn& first) {
    links_.push_back(
        std::make_unique<Link>(this, links_.size(), conns, std::move(redial)));
    return links_.back()->Dial(first);
  }

  // Links are complete; start the expiry sweeper if ops carry deadlines.
  void Seal() {
    LW_CHECK_MSG(links_.size() == topology_.shard_count(),
                 "need one link per shard");
    if (options_.op_timeout.count() > 0) {
      expiry_ = std::thread([this] { ExpiryLoop(); });
    }
  }

  void AnswerAsync(const dpf::DpfKey& key, AnswerCallback done) {
    if (key.domain_bits != topology_.domain_bits) {
      done(ProtocolError("DPF domain does not match deployment"));
      return;
    }
    // Front-end work: expand the top of the tree once (cheap; §5.2), then
    // ship each shard its sub-tree root. Requests pipeline onto every link
    // without waiting for any reply — concurrent ops interleave freely.
    const std::vector<dpf::SubtreeKey> subkeys =
        dpf::SplitForShards(key, topology_.top_bits);
    const std::size_t n = links_.size();
    std::uint32_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_) {
        id = next_id_++;
        if (next_id_ == 0) next_id_ = 1;  // id 0 stays reserved on wrap
        Op op;
        op.acc.assign(topology_.record_size, 0);
        op.awaiting.assign(n, true);
        op.queued_gen.assign(n, 0);
        op.remaining = n;
        op.done = std::move(done);
        op.start = clock_->Now();
        if (options_.op_timeout.count() > 0) {
          op.has_deadline = true;
          op.deadline = op.start + options_.op_timeout;
        }
        ops_.emplace(id, std::move(op));
      }
    }
    if (id == 0) {
      done(UnavailableError("fan-out shut down"));
      return;
    }
    obs::M().fanout_inflight.Add(1);
    expiry_cv_.notify_all();  // a new deadline may now be the earliest
    for (std::size_t s = 0; s < n; ++s) {
      GetRequest request;
      request.request_id = id;
      request.body = subkeys[s].Serialize();
      links_[s]->Enqueue(id, Encode(request));
    }
  }

  // A frame arrived on link `link`. Returns non-OK when the link's stream
  // can no longer be trusted (shard error frame — uncorrelatable by
  // design, messages.h — or an undecodable reply): the link must close
  // and redial.
  Status OnReply(std::size_t link, const net::Frame& frame) {
    if (frame.type == static_cast<std::uint8_t>(MsgType::kError)) {
      auto e = DecodeError(frame);
      return e.ok() ? StatusFromError(*e) : e.status();
    }
    auto response = DecodeGetResponse(frame);
    if (!response.ok()) return response.status();
    std::optional<Op> finished;
    Status op_failure = Status::Ok();
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = ops_.find(response->request_id);
      if (it == ops_.end() || !it->second.awaiting[link]) {
        // Late or duplicate: the op already completed (deadline, another
        // link's failure) or this link already answered it. Correlation
        // by id means we drop it here instead of handing it to the next
        // request — the old lock-step desync bug.
        obs::M().fanout_stale_drops.Inc();
        return Status::Ok();
      }
      Op& op = it->second;
      op.awaiting[link] = false;
      if (response->body.size() != topology_.record_size) {
        // Correlated but broken: the framing is intact, so fail only this
        // op and keep the link.
        op_failure = ProtocolError("shard answer has wrong record size");
        finished = std::move(op);
        ops_.erase(it);
      } else {
        XorInto(op.acc, response->body);
        obs::M().fanout_shard_rtt_ns.Observe(
            static_cast<std::uint64_t>((clock_->Now() - op.start).count()));
        if (--op.remaining == 0) {
          finished = std::move(op);
          ops_.erase(it);
        }
      }
    }
    if (finished.has_value()) {
      obs::M().fanout_inflight.Add(-1);
      if (op_failure.ok()) {
        finished->done(std::move(finished->acc));
      } else {
        finished->done(op_failure);
      }
    }
    return Status::Ok();
  }

  // A send for `op_id` failed on `link`: the op cannot complete. Replies
  // other shards already owe it become stale drops.
  void FailOp(std::uint32_t op_id, std::size_t link, const Status& why) {
    std::optional<Op> op;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = ops_.find(op_id);
      if (it == ops_.end()) return;
      op = std::move(it->second);
      ops_.erase(it);
    }
    obs::M().fanout_inflight.Add(-1);
    op->done(ShardStatus(link, why));
  }

  // Link `link` queued op `op_id` for its stream of generation `gen`
  // (generations start at 1 and rise each time the link drops a stream;
  // 0 takes back a queueing whose send failed). Links call this under their
  // own lock, in the same critical section that reads the generation, so a
  // reset cannot slip between the two.
  void MarkQueued(std::uint32_t op_id, std::size_t link, std::uint64_t gen) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ops_.find(op_id);
    if (it != ops_.end()) it->second.queued_gen[link] = gen;
  }

  // The link's stream of generation `gen` is gone or desynced: every op
  // still awaiting a reply on it fails now, rather than reading someone
  // else's reply later. Ops queued since, for the link's next stream, and
  // ops not yet queued on it are left alone.
  void OnLinkDown(std::size_t link, std::uint64_t gen, const Status& why) {
    std::vector<Op> hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = ops_.begin(); it != ops_.end();) {
        const std::uint64_t queued = it->second.queued_gen[link];
        if (it->second.awaiting[link] && queued != 0 && queued <= gen) {
          hit.push_back(std::move(it->second));
          it = ops_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (Op& op : hit) {
      obs::M().fanout_inflight.Add(-1);
      op.done(ShardStatus(link, why));
    }
  }

  // Carries the links of a fan-out built from transports.
  net::TransportPump& pump() { return pump_; }

  // Stops the sweeper and every link, then completes whatever is left.
  // Idempotent; called by ~Mux and usable for explicit teardown.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    expiry_cv_.notify_all();
    if (expiry_.joinable()) expiry_.join();
    for (auto& link : links_) link->Shutdown();
    std::map<std::uint32_t, Op> left;
    {
      std::lock_guard<std::mutex> lock(mu_);
      left.swap(ops_);
    }
    for (auto& [id, op] : left) {
      obs::M().fanout_inflight.Add(-1);
      op.done(UnavailableError("fan-out shut down"));
    }
  }

 private:
  static Status ShardStatus(std::size_t link, const Status& why) {
    return Status(why.code(),
                  "shard " + std::to_string(link) + ": " + why.message());
  }

  // Per-op deadlines are enforced here, against the pending table, not by
  // per-receive timeouts: the link readers stay blocked demultiplexing
  // while an expired op fails fast with DEADLINE_EXCEEDED. Under a
  // FakeClock the cv wait uses short real slices (the net/inmem.cc
  // discipline) so tests advance virtual time and see prompt expiry.
  void ExpiryLoop() {
    constexpr std::chrono::milliseconds kFakeClockSlice{5};
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopping_) {
      const std::chrono::nanoseconds now = clock_->Now();
      std::vector<Op> due;
      std::chrono::nanoseconds next = std::chrono::nanoseconds::max();
      for (auto it = ops_.begin(); it != ops_.end();) {
        if (it->second.has_deadline && it->second.deadline <= now) {
          due.push_back(std::move(it->second));
          it = ops_.erase(it);
        } else {
          if (it->second.has_deadline) {
            next = std::min(next, it->second.deadline);
          }
          ++it;
        }
      }
      if (!due.empty()) {
        lock.unlock();
        for (Op& op : due) {
          obs::M().fanout_deadline_expired.Inc();
          obs::M().fanout_inflight.Add(-1);
          op.done(DeadlineExceededError(
              "shard fan-out deadline expired (dead or slow shard)"));
        }
        lock.lock();
        continue;
      }
      if (next == std::chrono::nanoseconds::max()) {
        expiry_cv_.wait(lock);
        continue;
      }
      if (clock_ != &Clock::Real()) {
        expiry_cv_.wait_for(lock, kFakeClockSlice);
        continue;
      }
      expiry_cv_.wait_for(
          lock, std::min(next - now, std::chrono::nanoseconds(
                                         std::chrono::seconds(60))));
    }
  }

  const ShardTopology topology_;
  const FanoutOptions options_;
  Clock* clock_;  // never null

  std::mutex mu_;  // ops_, next_id_, stopping_
  std::condition_variable expiry_cv_;
  std::map<std::uint32_t, Op> ops_;
  std::uint32_t next_id_ = 1;
  bool stopping_ = false;

  net::TransportPump pump_;  // outlives the links, whose connections it runs
  std::vector<std::unique_ptr<Link>> links_;
  std::thread expiry_;
};

ShardFanout::ShardFanout(std::unique_ptr<Mux> mux) : mux_(std::move(mux)) {}

ShardFanout::ShardFanout(const ShardTopology& topology,
                         std::vector<std::unique_ptr<net::Transport>> links,
                         FanoutOptions options)
    : mux_(std::make_unique<Mux>(topology, options)) {
  LW_CHECK_MSG(links.size() == topology.shard_count(),
               "need one transport per shard");
  net::TransportPump* pump = &mux_->pump();
  for (std::size_t s = 0; s < links.size(); ++s) {
    Mux::Link::DialFn redial;
    if (s < options.redial.size() && options.redial[s]) {
      redial = [pump, factory = options.redial[s]](
                   net::Connections::Handler handler) {
        return Result<net::Connections::ConnId>(
            pump->Connect(factory, std::move(handler)));
      };
    }
    // The given transport is the link's first connection; adopting it
    // cannot fail.
    (void)mux_->AddLink(
        *pump, std::move(redial),
        [pump, &links, s](net::Connections::Handler handler) {
          return Result<net::Connections::ConnId>(
              pump->Adopt(std::move(links[s]), std::move(handler)));
        });
  }
  mux_->Seal();
}

Result<ShardFanout> ShardFanout::ConnectOnReactor(
    const ShardTopology& topology, net::Reactor& reactor,
    std::vector<ShardAddr> shards, FanoutOptions options) {
  if (shards.size() != topology.shard_count()) {
    return InvalidArgumentError("need one shard address per shard");
  }
  auto mux = std::make_unique<Mux>(topology, std::move(options));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    Mux::Link::DialFn dial = [&reactor, shard = std::move(shards[s])](
                                 net::Connections::Handler handler) {
      return reactor.Connect(shard.host, shard.port, std::move(handler));
    };
    LW_RETURN_IF_ERROR(mux->AddLink(reactor, dial, dial));
  }
  mux->Seal();
  return ShardFanout(std::move(mux));
}

ShardFanout::ShardFanout(ShardFanout&&) noexcept = default;
ShardFanout& ShardFanout::operator=(ShardFanout&&) noexcept = default;
ShardFanout::~ShardFanout() = default;

const ShardTopology& ShardFanout::topology() const {
  return mux_->topology();
}

void ShardFanout::AnswerAsync(const dpf::DpfKey& key, AnswerCallback done) {
  mux_->AnswerAsync(key, std::move(done));
}

Result<Bytes> ShardFanout::Answer(const dpf::DpfKey& key) {
  struct Waiter {
    std::mutex m;
    std::condition_variable cv;
    std::optional<Result<Bytes>> result;
  };
  auto waiter = std::make_shared<Waiter>();
  mux_->AnswerAsync(key, [waiter](Result<Bytes> r) {
    std::lock_guard<std::mutex> lock(waiter->m);
    waiter->result = std::move(r);
    waiter->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(waiter->m);
  waiter->cv.wait(lock, [&] { return waiter->result.has_value(); });
  return std::move(*waiter->result);
}

// ------------------------------------------------------------ front-end

FrontEndServer::FrontEndServer(std::uint8_t role, Bytes keyword_seed,
                               ShardFanout fanout)
    : fanout_(std::move(fanout)),
      core_({.hello = FrontEndHello(role, std::move(keyword_seed),
                                    fanout_.topology()),
             .parse = [this](Bytes body) -> Result<EndpointCore::Answer> {
               auto key = dpf::DpfKey::Deserialize(body);
               if (!key.ok()) {
                 return ProtocolError("malformed DPF key: " +
                                      key.status().message());
               }
               return EndpointCore::Answer(
                   [this, key = std::move(*key)](EndpointCore::Done done) {
                     // Expansion and scanning happen on the data shards, so
                     // the front-end's trace carries decode/reply only; the
                     // shard wait rides in total_ns.
                     fanout_.AnswerAsync(
                         key, [done = std::move(done)](Result<Bytes> answer) {
                           done(std::move(answer), obs::StageTimings{});
                         });
                   });
             },
             .counters = {.requests = &obs::M().frontend_requests,
                          .request_errors = &obs::M().frontend_request_errors,
                          .record_traces = true}}) {
  LW_CHECK_MSG(role <= 1, "front-end role must be 0 or 1");
}

}  // namespace lw::zltp
