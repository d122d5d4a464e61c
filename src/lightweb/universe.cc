#include "lightweb/universe.h"

#include "crypto/hkdf.h"
#include "lightweb/lightscript.h"
#include "lightweb/path.h"
#include "util/rand.h"

namespace lw::lightweb {
namespace {

UniverseConfig Normalize(UniverseConfig config) {
  if (config.master_seed.empty()) {
    config.master_seed = SecureRandom(16);
  }
  return config;
}

zltp::PirStoreConfig StoreConfig(const UniverseConfig& u, bool code) {
  zltp::PirStoreConfig c;
  c.domain_bits = code ? u.code_domain_bits : u.data_domain_bits;
  c.record_size = code ? u.code_blob_size : u.data_blob_size;
  c.keyword_seed = crypto::Hkdf(
      u.master_seed, /*salt=*/{},
      code ? "lightweb/code-universe" : "lightweb/data-universe", 16);
  return c;
}

}  // namespace

Universe::Universe(UniverseConfig config)
    : config_(Normalize(std::move(config))),
      code_store_(StoreConfig(config_, /*code=*/true)),
      data_store_(StoreConfig(config_, /*code=*/false)) {}

Status Universe::ClaimDomain(std::string_view domain,
                             std::string_view publisher_id) {
  if (!IsValidDomain(domain)) {
    return InvalidArgumentError("invalid domain '" + std::string(domain) +
                                "'");
  }
  if (publisher_id.empty()) {
    return InvalidArgumentError("publisher id must be non-empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = domain_owner_.find(domain);
  if (it != domain_owner_.end()) {
    if (it->second == publisher_id) return Status::Ok();
    return CollisionError("domain '" + std::string(domain) +
                          "' is owned by publisher '" + it->second + "'");
  }
  domain_owner_.emplace(std::string(domain), std::string(publisher_id));
  return Status::Ok();
}

Result<std::string> Universe::OwnerOf(std::string_view domain) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = domain_owner_.find(domain);
  if (it == domain_owner_.end()) return NotFoundError("domain unclaimed");
  return it->second;
}

Status Universe::CheckOwnership(std::string_view domain,
                                std::string_view publisher_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = domain_owner_.find(domain);
  if (it == domain_owner_.end()) {
    return FailedPreconditionError("domain '" + std::string(domain) +
                                   "' not claimed; claim it first");
  }
  if (it->second != publisher_id) {
    return PermissionDeniedError("domain '" + std::string(domain) +
                                 "' belongs to publisher '" + it->second +
                                 "'");
  }
  return Status::Ok();
}

Status Universe::PushCode(std::string_view publisher_id,
                          std::string_view domain,
                          std::string_view code_blob_text) {
  return PushCodeInternal(publisher_id, domain, code_blob_text,
                          /*propagate=*/true);
}

Status Universe::PushCodeInternal(std::string_view publisher_id,
                                  std::string_view domain,
                                  std::string_view code_blob_text,
                                  bool propagate) {
  if (!IsValidDomain(domain)) {
    return InvalidArgumentError("invalid domain");
  }
  LW_RETURN_IF_ERROR(CheckOwnership(domain, publisher_id));

  // Validate the program before accepting it into the universe.
  auto program = CodeProgram::Parse(code_blob_text);
  if (!program.ok()) {
    return Status(program.status().code(),
                  "code blob rejected: " + program.status().message());
  }
  if (program->max_fetches() >
      static_cast<std::size_t>(config_.fetches_per_page)) {
    return FailedPreconditionError(
        "a route fetches " + std::to_string(program->max_fetches()) +
        " blobs but this universe's fixed budget is " +
        std::to_string(config_.fetches_per_page));
  }

  LW_RETURN_IF_ERROR(code_store_.Publish(domain, ToBytes(code_blob_text)));

  if (propagate) {
    std::vector<Universe*> peers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      peers = peers_;
    }
    for (Universe* peer : peers) {
      // Peered CDNs agree on domain ownership (§3.5): claim on behalf of
      // the same publisher, then push without further propagation.
      (void)peer->ClaimDomain(domain, publisher_id);
      (void)peer->PushCodeInternal(publisher_id, domain, code_blob_text,
                                   /*propagate=*/false);
    }
  }
  return Status::Ok();
}

Status Universe::PushData(std::string_view publisher_id,
                          std::string_view path, ByteSpan payload) {
  return PushDataInternal(publisher_id, path, payload, /*propagate=*/true);
}

Status Universe::PushDataInternal(std::string_view publisher_id,
                                  std::string_view path, ByteSpan payload,
                                  bool propagate) {
  LW_ASSIGN_OR_RETURN(const ParsedPath parsed, ParsePath(path));
  LW_RETURN_IF_ERROR(CheckOwnership(parsed.domain, publisher_id));
  LW_RETURN_IF_ERROR(
      data_store_.Publish(JoinPath(parsed.domain, parsed.rest), payload));

  if (propagate) {
    std::vector<Universe*> peers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      peers = peers_;
    }
    for (Universe* peer : peers) {
      (void)peer->ClaimDomain(parsed.domain, publisher_id);
      (void)peer->PushDataInternal(publisher_id, path, payload,
                                   /*propagate=*/false);
    }
  }
  return Status::Ok();
}

Status Universe::RemoveData(std::string_view publisher_id,
                            std::string_view path) {
  LW_ASSIGN_OR_RETURN(const ParsedPath parsed, ParsePath(path));
  LW_RETURN_IF_ERROR(CheckOwnership(parsed.domain, publisher_id));
  return data_store_.Unpublish(JoinPath(parsed.domain, parsed.rest));
}

void Universe::AddPeer(Universe& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.push_back(&peer);
}

std::size_t Universe::total_domains() const {
  std::lock_guard<std::mutex> lock(mu_);
  return domain_owner_.size();
}

std::map<std::string, std::string> Universe::DomainOwners() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {domain_owner_.begin(), domain_owner_.end()};
}

}  // namespace lw::lightweb
