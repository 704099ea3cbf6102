// madforward — command-line driver for forwarding experiments.
//
// Runs a one-way transfer over a virtual channel built from a topology
// config (file or the built-in paper testbed) and reports timing. The kind
// of utility an operator uses to size paquets for a new cluster pairing.
//
// Usage:
//   madforward [--config FILE] [--src NAME] [--dst NAME]
//              [--size BYTES] [--paquet BYTES] [--depth N]
//              [--no-zero-copy] [--regulate BYTES_PER_S] [--repeats N]
//              [--reliable] [--trace-out FILE] [--metrics-out FILE]
//
// With no arguments: the paper testbed (m0 -> s0 through gw), 4 MB
// message, auto paquet.
//
// Observability: --trace-out writes a Chrome trace-event JSON of the run
// (load it in https://ui.perfetto.dev); setting MAD_TRACE=<file> in the
// environment is equivalent. --metrics-out writes the metrics registry
// snapshot (counters + latency quantiles) as JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/pingpong.hpp"
#include "harness/scenario.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace {

constexpr const char* kPaperConfig = R"(
network myri0 BIP/Myrinet
network sci0 SISCI/SCI
node m0 myri0
node gw myri0 sci0
node s0 sci0
)";

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--config FILE] [--src NAME] [--dst NAME] [--size BYTES]\n"
      "          [--paquet BYTES] [--depth N] [--no-zero-copy]\n"
      "          [--regulate BYTES_PER_S] [--repeats N] [--reliable]\n"
      "          [--trace-out FILE] [--metrics-out FILE]\n"
      "env: MAD_TRACE=FILE is equivalent to --trace-out FILE\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mad;
  std::string config_text = kPaperConfig;
  std::string src_name = "m0";
  std::string dst_name = "s0";
  std::size_t size = 4 * 1024 * 1024;
  int repeats = 1;
  std::string trace_out;
  std::string metrics_out;
  fwd::VcOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      std::ifstream in(next());
      if (!in) {
        std::fprintf(stderr, "cannot open config file\n");
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      config_text = buf.str();
      src_name.clear();  // must be provided for custom configs
      dst_name.clear();
    } else if (arg == "--src") {
      src_name = next();
    } else if (arg == "--dst") {
      dst_name = next();
    } else if (arg == "--size") {
      size = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--paquet") {
      options.paquet_size =
          static_cast<std::uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--depth") {
      options.pipeline_depth = std::atoi(next());
    } else if (arg == "--no-zero-copy") {
      options.zero_copy = false;
    } else if (arg == "--regulate") {
      options.regulation_rate = std::strtod(next(), nullptr);
    } else if (arg == "--repeats") {
      repeats = std::atoi(next());
    } else if (arg == "--reliable") {
      options.reliable.enabled = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else {
      usage(argv[0]);
    }
  }
  if (trace_out.empty()) {
    if (const char* env = std::getenv("MAD_TRACE");
        env != nullptr && *env != '\0') {
      trace_out = env;
    }
  }
  if (src_name.empty() || dst_name.empty() || size == 0 || repeats < 1) {
    usage(argv[0]);
  }

  sim::TraceSink trace;
  if (!trace_out.empty()) {
    trace.enable();
    options.trace = &trace;
  }

  try {
    const auto config = topo::parse_topo_config(config_text);
    harness::ConfigWorld world(config, options);
    if (!metrics_out.empty()) {
      world.fabric->metrics().enable();
    }
    const NodeRank src = world.rank_of(src_name);
    const NodeRank dst = world.rank_of(dst_name);

    const auto& route = world.vc->routing().route(src, dst);
    std::printf("route %s -> %s:", src_name.c_str(), dst_name.c_str());
    for (const auto& hop : route) {
      std::printf(" -[%s]-> %s",
                  config.networks[static_cast<std::size_t>(
                                      hop.network)].name.c_str(),
                  config.nodes[static_cast<std::size_t>(hop.node)]
                      .name.c_str());
    }
    std::printf("\nMTU %u bytes, pipeline depth %d, zero-copy %s\n",
                world.vc->mtu(), options.pipeline_depth,
                options.zero_copy ? "on" : "off");

    const auto result = harness::measure_vc_oneway(
        world.engine, *world.vc, src, dst, size, repeats, /*warmup=*/1);
    std::printf("%zu bytes one-way: %.1f us, %.2f MB/s (avg of %d)\n", size,
                sim::to_microseconds(result.one_way), result.mbps, repeats);

    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
      trace.write_chrome_json(out);
      std::printf("trace: %s (load in https://ui.perfetto.dev)\n",
                  trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
        return 1;
      }
      world.fabric->metrics().write_json(out);
      std::printf("metrics: %s\n", metrics_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
