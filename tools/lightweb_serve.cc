// lightweb_serve — host a lightweb universe over TCP.
//
// Loads one or more site files (JSON: domain + LightScript code + data
// blobs), builds a universe, and serves it as four ZLTP endpoints on
// consecutive loopback ports:
//
//   base+0  code universe, logical server role 0
//   base+1  code universe, logical server role 1
//   base+2  data universe, logical server role 0
//   base+3  data universe, logical server role 1
//
// (In production roles 0 and 1 live in separate trust domains; one process
// hosting both is a demo convenience.)
//
// Usage:
//   lightweb_serve <base_port> [--snapshot state.json]
//                  [--metrics-port=N] [--metrics-dump=PATH]
//                  [--max-batch=N] [--max-wait-ms=N] [--queue-limit=N]
//                  [--deadline-ms=N] [--threads=N] <site.json> ...
//
// With --snapshot, an existing snapshot file is loaded before any site
// files, and the final universe (snapshot + newly loaded sites) is written
// back — simple persistence across restarts.
//
// Serving model (docs/ARCHITECTURE.md): one epoll loop multiplexes all
// four endpoints; complete frames hand off to the batch scheduler.
//
// Batching knobs (docs/PERFORMANCE.md):
//   --max-batch=N     queries fused per scan pass (default 16; >= 1)
//   --max-wait-ms=N   co-rider window after a batch's first query
//   --queue-limit=N   shed RESOURCE_EXHAUSTED beyond N queued queries
//   --deadline-ms=N   per-request deadline budget driving early batch close
//   --threads=N       threads per scan pass (0 = hardware; at most 1024)
//
// Every number is a whole decimal argument in range; anything else prints
// "bad <flag>" and the usage and exits 2 before any port is bound. The XOR
// kernel tier is chosen from the CPU and printed at start-up.
//
// Observability (see docs/OBSERVABILITY.md):
//   --metrics-port=N   serve GET /metrics (Prometheus text) and
//                      GET /metrics.json on 127.0.0.1:N (0 = ephemeral)
//   --metrics-dump=P   atomically rewrite P with the JSON snapshot every
//                      10 seconds (for scrape-less setups)
//
// Site file format:
//   {
//     "domain": "planet.example",
//     "publisher": "planet-media",
//     "code": { "site": "...", "routes": [ ... LightScript ... ] },
//     "data": { "planet.example/data/x.json": { ...blob json... }, ... }
//   }
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "json/json.h"
#include "lightweb/snapshot.h"
#include "lightweb/universe.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "obs/exporter.h"
#include "parse_number.h"
#include "pir/xor_kernel.h"
#include "util/file.h"
#include "util/log.h"
#include "zltp/server.h"

namespace {

using namespace lw;

// The served universe's parameters. Kept small enough that a laptop serves
// requests interactively; see bench_server_compute for paper-scale costs.
lightweb::UniverseConfig ServeConfig() {
  lightweb::UniverseConfig config;
  config.name = "served";
  config.code_domain_bits = 12;
  config.code_blob_size = 16 * 1024;
  config.data_domain_bits = 16;
  config.data_blob_size = 2048;
  config.fetches_per_page = 5;
  return config;
}

bool LoadSite(lightweb::Universe& universe, const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 text.status().ToString().c_str());
    return false;
  }
  auto doc = json::Parse(*text);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 doc.status().ToString().c_str());
    return false;
  }
  const std::string domain = doc->GetString("domain");
  const std::string publisher = doc->GetString("publisher", "publisher");
  const json::Value* code = doc->Find("code");
  if (domain.empty() || code == nullptr) {
    std::fprintf(stderr, "%s: need \"domain\" and \"code\"\n", path.c_str());
    return false;
  }
  Status s = universe.ClaimDomain(domain, publisher);
  if (s.ok()) s = universe.PushCode(publisher, domain, json::Write(*code));
  if (!s.ok()) {
    std::fprintf(stderr, "%s: push code: %s\n", path.c_str(),
                 s.ToString().c_str());
    return false;
  }
  std::size_t blobs = 0;
  if (const json::Value* data = doc->Find("data");
      data != nullptr && data->is_object()) {
    for (const auto& [blob_path, blob] : data->AsObject()) {
      const Status ps = universe.PushData(publisher, blob_path,
                                          ToBytes(json::Write(blob)));
      if (!ps.ok()) {
        std::fprintf(stderr, "%s: push %s: %s\n", path.c_str(),
                     blob_path.c_str(), ps.ToString().c_str());
        return false;
      }
      ++blobs;
    }
  }
  std::printf("loaded %s: domain %s, %zu data blobs\n", path.c_str(),
              domain.c_str(), blobs);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <base_port> [--snapshot state.json]\n"
               "         [--metrics-port=N] [--metrics-dump=PATH]\n"
               "         [--max-batch=N] [--max-wait-ms=N] [--queue-limit=N]\n"
               "         [--deadline-ms=N] [--threads=N] <site.json> ...\n",
               argv0);
  return 2;
}

// Reports a malformed or out-of-range number for `what` (a --flag=N
// argument, or the name of a positional one), then the usage.
int BadValue(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "bad %s\n", what.substr(0, what.find('=')).c_str());
  return Usage(argv0);
}

// The value after the '=' of a --flag=N argument, if it is a decimal in
// [min, max].
std::optional<long> FlagNumber(const std::string& arg, long min,
                               long max = std::numeric_limits<int>::max()) {
  return tools::ParseNumber(std::string_view(arg).substr(arg.find('=') + 1),
                            min, max);
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered even on a pipe or a file, so a supervisor waiting for the
  // "listening on" and "browse with" lines gets them at once, and a SIGINT
  // (which ends the process without flushing) cannot lose them.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (argc < 3) return Usage(argv[0]);
  // The four endpoints take base_port .. base_port + 3.
  const std::optional<long> base_port = tools::ParseNumber(argv[1], 1, 65531);
  if (!base_port) return BadValue(argv[0], "base port");

  std::string snapshot_path;
  std::string metrics_dump_path;
  int metrics_port = -1;  // -1 = disabled; 0 = ephemeral port
  zltp::ServerOptions server_options;
  std::vector<std::string> site_files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--snapshot") {
      if (i + 1 == argc) {
        std::fprintf(stderr, "--snapshot needs a file\n");
        return Usage(argv[0]);
      }
      snapshot_path = argv[++i];
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      const std::optional<long> v = FlagNumber(arg, 0, 65535);
      if (!v) return BadValue(argv[0], arg);
      metrics_port = static_cast<int>(*v);
    } else if (arg.rfind("--metrics-dump=", 0) == 0) {
      metrics_dump_path = arg.substr(15);
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      const std::optional<long> v = FlagNumber(arg, 1);
      if (!v) return BadValue(argv[0], arg);
      server_options.batch_config.max_batch = static_cast<std::size_t>(*v);
    } else if (arg.rfind("--max-wait-ms=", 0) == 0) {
      const std::optional<long> v = FlagNumber(arg, 0);
      if (!v) return BadValue(argv[0], arg);
      server_options.batch_config.max_wait = std::chrono::milliseconds(*v);
    } else if (arg.rfind("--queue-limit=", 0) == 0) {
      const std::optional<long> v = FlagNumber(arg, 0);
      if (!v) return BadValue(argv[0], arg);
      server_options.batch_config.queue_limit = static_cast<std::size_t>(*v);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      const std::optional<long> v = FlagNumber(arg, 0);
      if (!v) return BadValue(argv[0], arg);
      server_options.batch_config.deadline_budget =
          std::chrono::milliseconds(*v);
    } else if (arg.rfind("--threads=", 0) == 0) {
      const std::optional<long> v = FlagNumber(arg, 0, 1024);
      if (!v) return BadValue(argv[0], arg);
      server_options.num_threads = static_cast<int>(*v);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return Usage(argv[0]);
    } else {
      site_files.emplace_back(arg);
    }
  }
  std::printf("scan kernel: %s\n", pir::XorTierName(pir::ActiveXorTier()));

  lightweb::Universe universe(ServeConfig());
  if (!snapshot_path.empty()) {
    const Status s =
        lightweb::LoadUniverseSnapshotFromFile(universe, snapshot_path);
    if (s.ok()) {
      std::printf("restored snapshot %s (%zu pages)\n",
                  snapshot_path.c_str(), universe.total_pages());
    } else if (s.code() != StatusCode::kUnavailable) {
      // Missing file is fine on first run; anything else is a real error.
      std::fprintf(stderr, "snapshot load: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& site : site_files) {
    if (!LoadSite(universe, site)) return 1;
  }
  if (!snapshot_path.empty()) {
    const Status s =
        lightweb::SaveUniverseSnapshotToFile(universe, snapshot_path);
    if (!s.ok()) {
      std::fprintf(stderr, "snapshot save: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("saved snapshot to %s\n", snapshot_path.c_str());
  }
  std::printf("universe ready: %zu pages, %zu domains\n\n",
              universe.total_pages(), universe.total_domains());

  std::unique_ptr<obs::MetricsHttpServer> metrics_server;
  if (metrics_port >= 0) {
    auto started =
        obs::MetricsHttpServer::Start(static_cast<std::uint16_t>(metrics_port));
    if (!started.ok()) {
      std::fprintf(stderr, "metrics server: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    metrics_server = std::move(*started);
    std::printf("metrics: http://127.0.0.1:%u/metrics (and /metrics.json)\n",
                metrics_server->port());
  }
  if (!metrics_dump_path.empty()) {
    // Detached dumper: the process serves until killed, so there is no
    // clean shutdown to join against.
    std::thread([path = metrics_dump_path] {
      for (;;) {
        const Status s = obs::WriteSnapshotJson(path);
        if (!s.ok()) {
          std::fprintf(stderr, "metrics dump: %s\n", s.ToString().c_str());
        }
        std::this_thread::sleep_for(std::chrono::seconds(10));
      }
    }).detach();
    std::printf("metrics: dumping JSON snapshot to %s every 10s\n",
                metrics_dump_path.c_str());
  }

  zltp::ZltpPirServer code0(universe.code_store(), 0, server_options);
  zltp::ZltpPirServer code1(universe.code_store(), 1, server_options);
  zltp::ZltpPirServer data0(universe.data_store(), 0, server_options);
  zltp::ZltpPirServer data1(universe.data_store(), 1, server_options);

  struct Endpoint {
    zltp::ZltpPirServer* server;
    const char* label;
  };
  const Endpoint endpoints[4] = {{&code0, "code role 0"},
                                 {&code1, "code role 1"},
                                 {&data0, "data role 0"},
                                 {&data1, "data role 1"}};
  // One epoll loop owns all four listening sockets; each complete frame
  // hands off to the endpoint server's batch scheduler, whose admission
  // queue — not the kernel thread scheduler — decides what runs next.
  net::Reactor reactor;
  for (int i = 0; i < 4; ++i) {
    auto listener =
        net::TcpListener::Listen(static_cast<std::uint16_t>(*base_port + i));
    if (!listener.ok()) {
      std::fprintf(stderr, "listen %ld: %s\n", *base_port + i,
                   listener.status().ToString().c_str());
      return 1;
    }
    std::printf("listening on 127.0.0.1:%u (%s)\n",
                listener->bound_port(), endpoints[i].label);
    const Status s =
        endpoints[i].server->ServeOnReactor(reactor, std::move(*listener));
    if (!s.ok()) {
      std::fprintf(stderr, "serve %ld: %s\n", *base_port + i,
                   s.ToString().c_str());
      return 1;
    }
  }
  if (const Status s = reactor.Start(); !s.ok()) {
    std::fprintf(stderr, "reactor: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nbrowse with: lightweb_browse 127.0.0.1 %ld <domain/path>\n",
              *base_port);
  reactor.Join();
  return 0;
}
