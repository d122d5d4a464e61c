// lightweb_browse — a terminal lightweb browser over TCP.
//
// Connects to the four ZLTP endpoints published by lightweb_serve and
// renders pages. With a path argument it fetches one page and exits
// (scriptable); without one it runs an interactive prompt where you enter
// a path, a link number from the last page, or 'q'.
//
// Usage:  lightweb_browse <host> <base_port> [path]
//
// The four endpoints are base_port .. base_port + 3; a base port that is
// not a decimal in 1..65532 prints "bad base port" and the usage and exits
// 2 before anything is dialled.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "lightweb/browser.h"
#include "lightweb/channel.h"
#include "net/tcp.h"
#include "parse_number.h"
#include "zltp/client.h"

namespace {

using namespace lw;

Result<zltp::PirSession> ConnectPair(const std::string& host, int port0,
                                     int port1) {
  // Dial via factories so the session can redial and retry (with fresh DPF
  // shares) if a CDN node blips mid-browse.
  const auto dial = [&host](int port) -> net::TransportFactory {
    return [host, port] {
      return net::TcpConnect(host, static_cast<std::uint16_t>(port));
    };
  };
  zltp::EstablishOptions options;
  options.factory0 = dial(port0);
  options.factory1 = dial(port1);
  options.hello_timeout = std::chrono::seconds(5);
  options.op_timeout = std::chrono::seconds(10);
  options.retry.max_attempts = 3;
  return zltp::PirSession::Establish(std::move(options));
}

void Render(const lightweb::RenderedPage& page) {
  std::printf("\n==================== %s ====================\n",
              page.full_path.c_str());
  std::printf("%s\n", page.text.c_str());
  if (!page.links.empty()) {
    std::printf("---- links ----\n");
    for (std::size_t i = 0; i < page.links.size(); ++i) {
      std::printf("  [%zu] %s -> %s\n", i + 1, page.links[i].label.c_str(),
                  page.links[i].target.c_str());
    }
  }
  std::printf("---- traffic: %d real + %d dummy data fetches, code %s "
              "----\n\n",
              page.real_fetches, page.dummy_fetches,
              page.code_cache_hit ? "cached" : "fetched");
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s <host> <base_port> [path]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string host = argv[1];
  const std::optional<long> port = tools::ParseNumber(argv[2], 1, 65532);
  if (!port) {
    std::fprintf(stderr, "bad base port\n");
    return Usage(argv[0]);
  }
  const int base_port = static_cast<int>(*port);

  auto code_session = ConnectPair(host, base_port, base_port + 1);
  auto data_session = ConnectPair(host, base_port + 2, base_port + 3);
  if (!code_session.ok() || !data_session.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 (!code_session.ok() ? code_session.status()
                                     : data_session.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  lightweb::BrowserConfig config;
  config.fetches_per_page = 5;  // must match the served universe
  lightweb::Browser browser(
      std::make_unique<lightweb::ZltpChannel>(
          std::make_unique<zltp::PirSession>(std::move(*code_session))),
      std::make_unique<lightweb::ZltpChannel>(
          std::make_unique<zltp::PirSession>(std::move(*data_session))),
      config);

  std::vector<lightweb::PageLink> last_links;
  const auto visit = [&](const std::string& path) {
    auto page = browser.Visit(path);
    if (!page.ok()) {
      std::printf("error: %s\n", page.status().ToString().c_str());
      return;
    }
    last_links = page->links;
    Render(*page);
  };

  if (argc >= 4) {
    visit(argv[3]);
    return 0;
  }

  std::printf("lightweb interactive browser. Enter a path "
              "(e.g. planet.example), a link number, or q.\n");
  std::string line;
  while (std::printf("lightweb> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line == "q" || line == "quit") break;
    if (line.empty()) continue;
    // A pure number selects a link from the last page.
    const bool numeric =
        line.find_first_not_of("0123456789") == std::string::npos;
    if (numeric) {
      const std::size_t n = std::strtoull(line.c_str(), nullptr, 10);
      if (n == 0 || n > last_links.size()) {
        std::printf("no such link\n");
        continue;
      }
      visit(last_links[n - 1].target);
    } else {
      visit(line);
    }
  }
  return 0;
}
