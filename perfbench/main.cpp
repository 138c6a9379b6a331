// vp_perfbench: one run of one end-to-end workload.
//
//   vp_perfbench --workload campaign|serve --seed N --seconds S
//                --trace 0|1 --out-dir DIR
//
// Prints one JSON line of raw samples, counters and correctness checks;
// run.py (next to this file) builds this program and turns that line into
// the benchmark's metrics. With --trace 1 it also records spans and
// writes them to DIR/trace-<workload>-<seed>.json at exit.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Report::check(const std::string& name, bool ok) {
  const auto [it, fresh] = checks.emplace(name, ok);
  if (!fresh) it->second = it->second && ok;
}

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

std::string Report::to_json() const {
  std::ostringstream out;
  const auto series = [&](const std::map<std::string, std::vector<double>>& m) {
    out << '{';
    bool first = true;
    for (const auto& [name, values] : m) {
      out << (first ? "" : ",") << quoted(name) << ":[";
      for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? "," : "") << number(values[i]);
      out << ']';
      first = false;
    }
    out << '}';
  };
  out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"samples\":";
  series(samples);
  out << ",\"layer\":";
  series(layer);
  out << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ",") << quoted(name) << ':' << number(value);
    first = false;
  }
  out << "},\"checks\":{";
  first = true;
  for (const auto& [name, ok] : checks) {
    out << (first ? "" : ",") << quoted(name) << ':' << (ok ? "true" : "false");
    first = false;
  }
  out << "}}";
  return out.str();
}

World::World(std::uint64_t seed_in, std::string out_dir_in)
    : seed(seed_in), out_dir(std::move(out_dir_in)) {
  analysis::ScenarioConfig config;
  config.seed = kInternetSeed;
  config.scale = 1.0;
  config.generated_ases = kGeneratedAses;
  {
    Span span{"setup.scenario"};
    scenario = std::make_unique<analysis::Scenario>(config);
  }
  Span span{"setup.route"};
  routes = scenario->route(scenario->tangled());
}

std::string load_config(const World& world) {
  const auto& sites = world.deployment().sites;
  std::uint64_t h = derive(world.seed, 0x10ad);
  const std::size_t count = 1 + h % 3;
  std::vector<std::size_t> picked;
  std::string config;
  for (std::size_t k = 0; k < count; ++k) {
    h = derive(h, k);
    const std::size_t site = h % sites.size();
    if (std::find(picked.begin(), picked.end(), site) != picked.end())
      continue;
    picked.push_back(site);
    if (!config.empty()) config += ',';
    config += sites[site].code + "=" + std::to_string(1 + (h >> 32) % 3);
  }
  return config;
}

anycast::Deployment apply_config(const anycast::Deployment& base,
                                 const std::string& config) {
  anycast::Deployment target = base;
  std::string_view rest = config;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    const std::size_t eq = pair.find('=');
    const auto site = target.site_by_code(pair.substr(0, eq));
    if (site)
      target.sites[static_cast<std::size_t>(*site)].prepend =
          std::atoi(std::string{pair.substr(eq + 1)}.c_str());
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  return target;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench

namespace {

using namespace perfbench;

// Set-up is repeated and its median reported, so that one slow page-fault
// storm does not decide the figure.
constexpr int kSetupReps = 3;
// Fixed-size passes of the job a traced run's workload does not centre on,
// so that every traced run reports every per-layer metric.
constexpr int kSideCampaigns = 1;
constexpr double kSideServeSeconds = 8.0;
// The what-if search runs in every run, after the window: one attack of
// each kind, each response checked against the reference scorer.
constexpr int kAttacks = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse(int argc, char** argv, Options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") opts.workload = value;
    else if (key == "--seed") opts.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") opts.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") opts.trace = std::strcmp(value, "0") != 0;
    else if (key == "--out-dir") opts.out_dir = value;
    else return false;
  }
  return (argc % 2) == 1 && opts.seconds > 0 &&
         (opts.workload == "campaign" || opts.workload == "serve");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: vp_perfbench --workload campaign|serve "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(opts.out_dir);
  Tracer::instance().set_enabled(opts.trace);
  Report report;
  const std::string& w = opts.workload;

  // Set-up: the shared world plus the workload's own job, up to its first
  // timed operation. The last repetition is kept.
  std::unique_ptr<World> world;
  std::unique_ptr<CampaignJob> campaign;
  std::unique_ptr<ServeJob> serve;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool keep = rep + 1 == kSetupReps;
    const double t0 = rep == 0 ? 0.0 : now_s();  // rep 0: from process start
    {
      Span span{"setup"};
      world = std::make_unique<World>(opts.seed, opts.out_dir);
      if (w == "campaign") campaign = std::make_unique<CampaignJob>(*world);
      if (w == "serve") serve = std::make_unique<ServeJob>(*world, keep ? 0 : 1);
    }
    report.samples["setup_s"].push_back(now_s() - t0);
    if (!keep) {
      if (serve) serve->stop(report);
      serve.reset();
      campaign.reset();
      world.reset();
    }
  }

  // The workload's own job gets the measured window. In a traced run the
  // window is split: first half untraced, second half traced, so that the
  // difference is the tracing overhead.
  const auto main_window = [&](double seconds, const std::string& prefix) {
    if (w == "campaign") campaign->run(seconds, 1, report, prefix);
    if (w == "serve") serve->run(seconds, report, prefix);
  };
  if (opts.trace) {
    Tracer::instance().set_enabled(false);
    main_window(opts.seconds / 2, "untraced.");
    Tracer::instance().set_enabled(true);
    main_window(opts.seconds / 2, "traced.");
  } else {
    main_window(opts.seconds, "");
  }

  // The daemon measures in the background: stop it before anything else
  // runs beside it. Each job is dropped once done, so that memory it no
  // longer needs does not add to the next job's peak.
  if (serve) serve->stop(report);
  serve.reset();
  campaign.reset();

  // A traced run's side pass: the other job, fixed size, traced.
  if (opts.trace && w != "campaign") {
    CampaignJob{*world}.run(0.0, kSideCampaigns, report, "side.");
  }
  if (opts.trace && w != "serve") {
    ServeJob side{*world, 0};
    side.run(kSideServeSeconds, report, "side.");
    side.stop(report);
  }
  WhatifJob whatif{*world};
  whatif.run(kAttacks, report);

  if (opts.trace) {
    run_layers(*world, whatif, report);
    report.counters["trace.spans"] = static_cast<double>(Tracer::instance().size());
    const std::string path = opts.out_dir + "/trace-" + w + "-" +
                             std::to_string(opts.seed) + ".json";
    report.check("trace.written", Tracer::instance().write_chrome_json(path));
    std::printf("trace_file %s\n", path.c_str());
  }
  report.samples["peak_rss_mb"].push_back(peak_rss_mb());
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  return 0;
}
