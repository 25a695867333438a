// Edge worker process for distributed federation runs. Connects to a
// FederatedRoot (see core/fl/federation.hpp), receives its manifest over
// the wire, builds the run's FlCoordinator from it, and runs its tier-1
// edge's share of each round on whatever cohort the root assigns until
// BYE.
//
//   ./build/fedsz_edge_worker --connect 127.0.0.1:47001
//
// Exit status: 0 after a clean BYE (or root EOF), 1 on transport or
// protocol failure. Normally spawned by `fedsz_campaign` (one worker per
// tier-1 edge), but any process may connect — workers are interchangeable
// until the handshake assigns them an edge index.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/fl/federation.hpp"
#include "net/transport.hpp"

int main(int argc, char** argv) {
  std::string endpoint = "127.0.0.1:0";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      endpoint = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s --connect <host>:<port>\n", argv[0]);
      return 2;
    }
  }
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "fedsz_edge_worker: bad endpoint '%s'\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "fedsz_edge_worker: bad port in '%s'\n",
                 endpoint.c_str());
    return 2;
  }
  try {
    fedsz::core::run_edge_worker(
        fedsz::net::tcp_connect(host, static_cast<std::uint16_t>(port)));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fedsz_edge_worker: %s\n", error.what());
    return 1;
  }
  return 0;
}
