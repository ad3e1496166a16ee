// hpcapd — the streaming capacity-monitoring daemon (src/net/).
//
// Loads a trained monitor bundle (hpcapctl train) and serves the hpcap
// wire protocol: agents connect, HELLO with their metric level and window
// size, stream per-tier counter samples, and receive per-window
// overload/bottleneck Decisions. SIGHUP re-loads the model file in place
// (validated before the swap; live sessions and connections survive);
// SIGINT/SIGTERM drain and exit.
//
//   hpcapd --model FILE [--port N] [--bind ADDR] [--num-tiers K]
//          [--idle-timeout S] [--handshake-timeout S]
//          [--max-write-queue N] [--session-linger S]
//          [--decision-replay N] [--control auto|allow|deny]
//          [--reactors N] [--shard-mode handoff]
//          [--parent HOST:PORT] [--leaf-name NAME]
//          [--coverage I,J,...] [--fanin N]
//          [--log-level debug|info|warn|error] [--version]
//
// RELOAD/SHUTDOWN frames carry no peer authentication, so by default
// (--control auto) they are honored only on a loopback bind; --control
// allow opts a non-loopback bind in, --control deny refuses them even
// on loopback (SIGHUP/SIGTERM still work).
//
// --decision-replay must be at least --max-write-queue: a session dropped
// for a full write queue replays every queued decision from that ring.
// A configuration the daemon rejects is a usage error (exit 2).
//
// Fleet topology: --reactors N runs N sharded event loops behind one
// port; reactor 0 accepts and hands connections to the reactors
// round-robin. --shard-mode handoff names that placement, the only one
// there is. --parent HOST:PORT makes this daemon a
// leaf of an aggregation tree: every decided window's synopsis votes
// stream to the parent hpcapd, which merges the fleet's disjoint slices
// and streams fleet decisions back. --coverage lists the parent-side
// synopsis indices this leaf owns (default: all of the local model's);
// --fanin bounds how many leaves a parent accepts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "net/protocol.h"
#include "net/server.h"
#include "util/log.h"

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: hpcapd --model FILE [--port N] [--bind ADDR]\n"
               "              [--num-tiers K] [--idle-timeout S]\n"
               "              [--handshake-timeout S] [--max-write-queue N]\n"
               "              [--session-linger S] [--decision-replay N]\n"
               "              [--control auto|allow|deny]\n"
               "              [--reactors N] [--shard-mode handoff]\n"
               "              [--parent HOST:PORT] [--leaf-name NAME]\n"
               "              [--coverage I,J,...] [--fanin N]\n"
               "              [--ctrl-advisory] [--ctrl-min-cap X]\n"
               "              [--ctrl-max-cap X]\n"
               "              [--log-level debug|info|warn|error]\n"
               "       hpcapd --version\n");
}

// Strict numeric parsing: a flag value that is not entirely a number is a
// usage error, not a silent zero (hpcap-lint banned-function contract).
long parse_long(const char* flag, const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "hpcapd: %s needs an integer, got '%s'\n", flag, s);
    std::exit(2);
  }
  return v;
}

double parse_double(const char* flag, const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "hpcapd: %s needs a number, got '%s'\n", flag, s);
    std::exit(2);
  }
  return v;
}

bool parse_log_level(const std::string& name, hpcap::LogLevel* out) {
  if (name == "debug") *out = hpcap::LogLevel::kDebug;
  else if (name == "info") *out = hpcap::LogLevel::kInfo;
  else if (name == "warn") *out = hpcap::LogLevel::kWarn;
  else if (name == "error") *out = hpcap::LogLevel::kError;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  hpcap::net::ServerConfig cfg;
  std::string model;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hpcapd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--version") {
      std::printf("hpcapd protocol v%u, model format %s\n",
                  static_cast<unsigned>(hpcap::net::kProtocolVersion),
                  hpcap::net::kModelFormatVersion);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--model") {
      model = value();
    } else if (arg == "--port") {
      cfg.port = static_cast<std::uint16_t>(parse_long("--port", value()));
    } else if (arg == "--bind") {
      cfg.bind_address = value();
    } else if (arg == "--num-tiers") {
      cfg.num_tiers = static_cast<int>(parse_long("--num-tiers", value()));
    } else if (arg == "--idle-timeout") {
      cfg.idle_timeout = parse_double("--idle-timeout", value());
    } else if (arg == "--handshake-timeout") {
      cfg.handshake_timeout = parse_double("--handshake-timeout", value());
    } else if (arg == "--max-write-queue") {
      cfg.max_write_queue =
          static_cast<std::size_t>(parse_long("--max-write-queue", value()));
    } else if (arg == "--session-linger") {
      cfg.session_linger = parse_double("--session-linger", value());
    } else if (arg == "--decision-replay") {
      const long n = parse_long("--decision-replay", value());
      if (n < 1) {
        std::fprintf(stderr, "hpcapd: --decision-replay must be >= 1\n");
        return 2;
      }
      cfg.decision_replay = static_cast<std::size_t>(n);
    } else if (arg == "--reactors") {
      const long n = parse_long("--reactors", value());
      if (n < 1) {
        std::fprintf(stderr, "hpcapd: --reactors must be >= 1\n");
        return 2;
      }
      cfg.reactors = static_cast<std::size_t>(n);
    } else if (arg == "--shard-mode") {
      const std::string mode = value();
      if (mode != "handoff") {
        std::fprintf(stderr,
                     "hpcapd: unknown shard mode '%s' (handoff is the only "
                     "one)\n",
                     mode.c_str());
        usage(stderr);
        return 2;
      }
    } else if (arg == "--parent") {
      const std::string hostport = value();
      const std::size_t colon = hostport.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == hostport.size()) {
        std::fprintf(stderr, "hpcapd: --parent needs HOST:PORT, got '%s'\n",
                     hostport.c_str());
        return 2;
      }
      cfg.parent_host = hostport.substr(0, colon);
      cfg.parent_port = static_cast<std::uint16_t>(
          parse_long("--parent", hostport.c_str() + colon + 1));
    } else if (arg == "--leaf-name") {
      cfg.leaf_name = value();
    } else if (arg == "--coverage") {
      std::string list = value();
      cfg.agg_coverage.clear();
      std::size_t at = 0;
      while (at <= list.size()) {
        std::size_t comma = list.find(',', at);
        if (comma == std::string::npos) comma = list.size();
        const std::string item = list.substr(at, comma - at);
        if (item.empty()) {
          std::fprintf(stderr, "hpcapd: --coverage has an empty entry\n");
          return 2;
        }
        cfg.agg_coverage.push_back(static_cast<std::uint16_t>(
            parse_long("--coverage", item.c_str())));
        at = comma + 1;
      }
    } else if (arg == "--fanin") {
      const long n = parse_long("--fanin", value());
      if (n < 1) {
        std::fprintf(stderr, "hpcapd: --fanin must be >= 1\n");
        return 2;
      }
      cfg.agg_fanin = static_cast<std::size_t>(n);
    } else if (arg == "--control") {
      const std::string policy = value();
      if (policy == "auto")
        cfg.control_policy = hpcap::net::ControlPolicy::kAuto;
      else if (policy == "allow")
        cfg.control_policy = hpcap::net::ControlPolicy::kAllow;
      else if (policy == "deny")
        cfg.control_policy = hpcap::net::ControlPolicy::kDeny;
      else {
        std::fprintf(stderr, "hpcapd: unknown control policy '%s'\n",
                     policy.c_str());
        return 2;
      }
    } else if (arg == "--ctrl-advisory") {
      cfg.ctrl_advisory = true;
    } else if (arg == "--ctrl-min-cap") {
      cfg.ctrl_min_cap = parse_double("--ctrl-min-cap", value());
    } else if (arg == "--ctrl-max-cap") {
      cfg.ctrl_max_cap = parse_double("--ctrl-max-cap", value());
    } else if (arg == "--log-level") {
      hpcap::LogLevel level;
      if (!parse_log_level(value(), &level)) {
        std::fprintf(stderr, "hpcapd: unknown log level\n");
        return 2;
      }
      hpcap::set_log_level(level);
    } else {
      std::fprintf(stderr, "hpcapd: unknown argument '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (model.empty()) {
    std::fprintf(stderr, "hpcapd: --model FILE is required\n");
    usage(stderr);
    return 2;
  }

  try {
    return hpcap::net::run_daemon(cfg, model, /*install_signals=*/true);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "hpcapd: %s\n", e.what());
    usage(stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
