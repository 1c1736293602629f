// jiscbench: the scenario-harness CLI.
//
//   jiscbench run <spec.json> [--strategy S] [--parallelism N] [--seed N]
//                 [--scale F] [--out FILE] [--trace FILE] [--telemetry MS]
//                 [--telemetry-jsonl FILE] [--prom FILE]
//       Execute a scenario and write its evidence bundle (run.json; with
//       --trace also a Chrome trace). Default output: <name>.run.json.
//       --telemetry MS forces telemetry sampling on at that period even if
//       the spec leaves it off; --telemetry-jsonl dumps the sampled series
//       as JSONL (tools/telemetry_plot.py input) and --prom writes the
//       final counters/gauges in Prometheus text format (textfile
//       collector).
//
//   jiscbench capture <spec.json>... [--scale F] [--out-dir DIR]
//       Run each spec and write the bundle as DIR/<name>.json — the
//       baseline-capture flow (DIR defaults to baselines/).
//
//   jiscbench compare <baseline.json> <run.json> [--out diff.json]
//       Diff a run against a captured baseline. Prints the metric table,
//       writes diff.json when --out is given.
//
//   jiscbench validate <spec.json>...
//       Parse + validate specs (strict: unknown keys are errors).
//
//   jiscbench list [<dir-or-spec.json>...]
//       With no arguments, print the available strategy names. With
//       directories or spec files, print one row per spec:
//       <file> <name> <strategy> <gate> <faults>, where faults is a
//       comma-joined summary of the spec's active fault fields ("-" when
//       none). CI's fault-sweep job selects its workload from the faults
//       column.
//
// Exit codes (stable; CI depends on them): 0 success / comparison passed,
// 2 usage error, 3 comparison found a regression, 4 spec or bundle error.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace_export.h"
#include "scenario/baseline.h"
#include "scenario/bundle.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace jisc {
namespace scenario {
namespace {

constexpr int kExitUsage = 2;

int Usage() {
  std::cerr <<
      "usage:\n"
      "  jiscbench run <spec.json> [--strategy S] [--parallelism N]\n"
      "            [--seed N] [--scale F] [--out FILE] [--trace FILE]\n"
      "            [--telemetry MS] [--telemetry-jsonl FILE] [--prom FILE]\n"
      "  jiscbench capture <spec.json>... [--scale F] [--out-dir DIR]\n"
      "  jiscbench compare <baseline.json> <run.json> [--out diff.json]\n"
      "  jiscbench validate <spec.json>...\n"
      "  jiscbench list [<dir-or-spec.json>...]\n";
  return kExitUsage;
}

int SpecError(const Status& status) {
  std::cerr << "jiscbench: " << status.ToString() << "\n";
  return kExitSpecError;
}

struct ParsedArgs {
  std::vector<std::string> positional;
  std::string strategy;
  int parallelism = 0;
  std::optional<uint64_t> seed;
  double scale = 1.0;
  std::string out;
  std::string out_dir;
  std::string trace;
  uint64_t telemetry_ms = 0;
  std::string telemetry_jsonl;
  std::string prom;
  bool ok = true;
};

// All of `text` as a decimal T, else nullopt. An unsigned T takes no sign,
// so "-1" is rejected rather than wrapped.
template <typename T>
std::optional<T> ParseWhole(const char* text) {
  T value{};
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

ParsedArgs ParseArgs(int argc, char** argv) {
  ParsedArgs args;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "jiscbench: " << arg << " needs a value\n";
        args.ok = false;
        return nullptr;
      }
      return argv[++i];
    };
    auto reject = [&](const char* value, const char* want) {
      std::cerr << "jiscbench: " << arg << " needs " << want << " (got '"
                << value << "')\n";
      args.ok = false;
    };
    if (arg == "--strategy") {
      if (const char* v = next()) args.strategy = v;
    } else if (arg == "--parallelism") {
      if (const char* v = next()) {
        args.parallelism = ParseWhole<int>(v).value_or(0);
        if (args.parallelism < 1) reject(v, "an integer >= 1");
      }
    } else if (arg == "--seed") {
      if (const char* v = next()) {
        args.seed = ParseWhole<uint64_t>(v);
        if (!args.seed.has_value()) reject(v, "a non-negative integer");
      }
    } else if (arg == "--scale") {
      if (const char* v = next()) args.scale = std::atof(v);
    } else if (arg == "--out") {
      if (const char* v = next()) args.out = v;
    } else if (arg == "--out-dir") {
      if (const char* v = next()) args.out_dir = v;
    } else if (arg == "--trace") {
      if (const char* v = next()) args.trace = v;
    } else if (arg == "--telemetry") {
      if (const char* v = next()) {
        args.telemetry_ms = ParseWhole<uint64_t>(v).value_or(0);
        if (args.telemetry_ms == 0) reject(v, "a period > 0 ms");
      }
    } else if (arg == "--telemetry-jsonl") {
      if (const char* v = next()) args.telemetry_jsonl = v;
    } else if (arg == "--prom") {
      if (const char* v = next()) args.prom = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "jiscbench: unknown flag " << arg << "\n";
      args.ok = false;
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

RunOptions ToRunOptions(const ParsedArgs& args, bool capture_trace) {
  RunOptions opts;
  opts.strategy = args.strategy;
  opts.parallelism = args.parallelism;
  opts.seed = args.seed;
  opts.scale = args.scale;
  opts.capture_trace = capture_trace;
  opts.telemetry_period_ms = args.telemetry_ms;
  return opts;
}

// Post-run telemetry exports (--telemetry-jsonl / --prom). Both fail
// loudly on a short write — an artifact that silently truncates is worse
// than no artifact.
int ExportTelemetry(const ParsedArgs& args, const RunResult& r) {
  if (!args.telemetry_jsonl.empty()) {
    if (!r.telemetry.enabled) {
      std::cerr << "jiscbench: --telemetry-jsonl needs telemetry on "
                   "(spec telemetry.enabled or --telemetry MS)\n";
      return kExitUsage;
    }
    std::ofstream f(args.telemetry_jsonl);
    if (!f) {
      std::cerr << "jiscbench: cannot write " << args.telemetry_jsonl << "\n";
      return kExitSpecError;
    }
    WriteTelemetryJsonl(f, r.telemetry.series, r.telemetry.dropped_snapshots);
    if (!f.good()) {
      std::cerr << "jiscbench: short write to " << args.telemetry_jsonl
                << "\n";
      return kExitSpecError;
    }
    std::cout << "wrote " << args.telemetry_jsonl << " ("
              << r.telemetry.series.size() << " snapshots)\n";
  }
  if (!args.prom.empty()) {
    std::ofstream f(args.prom);
    if (!f) {
      std::cerr << "jiscbench: cannot write " << args.prom << "\n";
      return kExitSpecError;
    }
    const TelemetrySnapshot* latest =
        r.telemetry.series.empty() ? nullptr : &r.telemetry.series.back();
    WritePrometheusText(f, r.counters, r.histograms, latest);
    if (!f.good()) {
      std::cerr << "jiscbench: short write to " << args.prom << "\n";
      return kExitSpecError;
    }
    std::cout << "wrote " << args.prom << "\n";
  }
  return 0;
}

void PrintRunSummary(const RunResult& r) {
  std::cout << "scenario " << r.scenario << " strategy=" << r.strategy
            << " seed=" << r.seed << " scale=" << r.scale
            << " parallelism=" << r.parallelism << "\n"
            << "  warmup " << r.warmup_tuples << " tuples ("
            << r.warmup_seconds << "s), measured " << r.measured_tuples
            << " tuples (" << r.measured_seconds << "s, "
            << static_cast<uint64_t>(r.throughput_tps) << " tps)\n"
            << "  transitions=" << r.transitions
            << " checkpoint_restores=" << r.checkpoint_restores << "\n";
  for (const auto& [name, value] : r.counters) {
    if (name == "work_units" || name == "outputs" || name == "completions") {
      std::cout << "  " << name << "=" << value << "\n";
    }
  }
  for (const auto& [name, s] : r.histograms) {
    if (s.count == 0) continue;
    std::cout << "  " << name << ": count=" << s.count << " p50=" << s.p50
              << " p99=" << s.p99 << " max=" << s.max << "\n";
  }
  if (r.telemetry.enabled) {
    uint64_t stragglers = 0;
    for (uint64_t f : r.telemetry.straggler_flags) stragglers += f;
    std::cout << "  telemetry: " << r.telemetry.samples << " samples @ "
              << r.telemetry.period_ms << "ms";
    if (r.telemetry.dropped_snapshots != 0) {
      std::cout << " (" << r.telemetry.dropped_snapshots << " dropped)";
    }
    std::cout << ", straggler verdicts=" << stragglers << "\n";
  }
}

int CmdRun(const ParsedArgs& args) {
  if (args.positional.size() != 1) return Usage();
  StatusOr<Spec> spec = LoadSpecFile(args.positional[0]);
  if (!spec.ok()) return SpecError(spec.status());
  StatusOr<RunResult> result =
      RunScenario(spec.value(), ToRunOptions(args, !args.trace.empty()));
  if (!result.ok()) return SpecError(result.status());
  std::string out =
      args.out.empty() ? result.value().scenario + ".run.json" : args.out;
  Status s = WriteRunBundle(result.value(), out, args.trace);
  if (!s.ok()) return SpecError(s);
  PrintRunSummary(result.value());
  std::cout << "wrote " << out;
  if (!args.trace.empty()) std::cout << " and " << args.trace;
  std::cout << "\n";
  return ExportTelemetry(args, result.value());
}

int CmdCapture(const ParsedArgs& args) {
  if (args.positional.empty()) return Usage();
  std::string dir = args.out_dir.empty() ? "baselines" : args.out_dir;
  for (const std::string& path : args.positional) {
    StatusOr<Spec> spec = LoadSpecFile(path);
    if (!spec.ok()) return SpecError(spec.status());
    StatusOr<RunResult> result =
        RunScenario(spec.value(), ToRunOptions(args, false));
    if (!result.ok()) return SpecError(result.status());
    std::string out = dir + "/" + result.value().scenario + ".json";
    Status s = WriteRunBundle(result.value(), out);
    if (!s.ok()) return SpecError(s);
    std::cout << "captured " << out << " (work_units=";
    for (const auto& [name, value] : result.value().counters) {
      if (name == "work_units") std::cout << value;
    }
    std::cout << ")\n";
  }
  return 0;
}

int CmdCompare(const ParsedArgs& args) {
  if (args.positional.size() != 2) return Usage();
  StatusOr<RunResult> baseline = LoadRunFile(args.positional[0]);
  StatusOr<RunResult> current = LoadRunFile(args.positional[1]);
  DiffResult diff;
  if (!baseline.ok() || !current.ok()) {
    diff.spec_error = true;
    diff.error = (!baseline.ok() ? baseline.status() : current.status())
                     .ToString();
  } else {
    diff = CompareRuns(baseline.value(), current.value());
  }
  if (!args.out.empty()) {
    std::ofstream f(args.out);
    if (!f) {
      std::cerr << "jiscbench: cannot write " << args.out << "\n";
      return kExitSpecError;
    }
    f << DiffToJson(diff).Pretty();
  }
  std::cout << DiffToTable(diff);
  return diff.exit_code();
}

int CmdValidate(const ParsedArgs& args) {
  if (args.positional.empty()) return Usage();
  int rc = 0;
  for (const std::string& path : args.positional) {
    StatusOr<Spec> spec = LoadSpecFile(path);
    if (!spec.ok()) {
      std::cerr << path << ": " << spec.status().ToString() << "\n";
      rc = kExitSpecError;
    } else {
      std::cout << path << ": ok (" << spec.value().name << ", strategy "
                << spec.value().strategy << ", "
                << TotalMeasuredTuples(spec.value())
                << " paper-scale tuples)\n";
    }
  }
  return rc;
}

// Comma-joined summary of a spec's active fault fields, "-" when the spec
// injects nothing. The nightly fault-sweep selects scenarios by this
// column, so the format is load-bearing: `field=value` pairs, no spaces.
std::string FaultSummary(const Spec& spec) {
  std::ostringstream os;
  auto add = [&os](const std::string& entry) {
    if (os.tellp() > 0) os << ",";
    os << entry;
  };
  const FaultSpec& f = spec.fault;
  if (f.straggler_shard >= 0) {
    add("straggler_shard=" + std::to_string(f.straggler_shard));
  }
  if (f.drop_every != 0) add("drop_every=" + std::to_string(f.drop_every));
  if (f.duplicate_every != 0) {
    add("duplicate_every=" + std::to_string(f.duplicate_every));
  }
  if (f.reorder_window != 0) {
    add("reorder_window=" + std::to_string(f.reorder_window));
  }
  if (f.drop_burst != 0) {
    add("drop_burst=" + std::to_string(f.drop_burst) + "@" +
        std::to_string(f.drop_burst_at));
  }
  if (spec.ingress.enabled) add("ingress=" + spec.ingress.overflow);
  std::string summary = os.str();
  return summary.empty() ? "-" : summary;
}

int CmdList(const ParsedArgs& args) {
  if (args.positional.empty()) {
    for (ProcessorKind kind :
         {ProcessorKind::kJisc, ProcessorKind::kJiscFirstReceipt,
          ProcessorKind::kMovingState, ProcessorKind::kParallelTrack,
          ProcessorKind::kHybridTrack, ProcessorKind::kCacq,
          ProcessorKind::kMJoin, ProcessorKind::kStairsEager,
          ProcessorKind::kStairsJisc, ProcessorKind::kStaticPipeline}) {
      std::cout << ProcessorKindName(kind) << "\n";
    }
    return 0;
  }
  // Expand directories to their .json files, sorted for stable output.
  std::vector<std::string> files;
  for (const std::string& path : args.positional) {
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec)) {
      std::vector<std::string> in_dir;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (entry.path().extension() == ".json") {
          in_dir.push_back(entry.path().string());
        }
      }
      std::sort(in_dir.begin(), in_dir.end());
      files.insert(files.end(), in_dir.begin(), in_dir.end());
    } else {
      files.push_back(path);
    }
  }
  int rc = 0;
  for (const std::string& path : files) {
    StatusOr<Spec> spec = LoadSpecFile(path);
    if (!spec.ok()) {
      std::cerr << path << ": " << spec.status().ToString() << "\n";
      rc = kExitSpecError;
      continue;
    }
    const Spec& s = spec.value();
    std::cout << path << " " << s.name << " " << s.strategy << " "
              << (s.gate ? "gate" : "nogate") << " " << FaultSummary(s)
              << "\n";
  }
  return rc;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  ParsedArgs args = ParseArgs(argc - 2, argv + 2);
  if (!args.ok) return kExitUsage;
  if (cmd == "run") return CmdRun(args);
  if (cmd == "capture") return CmdCapture(args);
  if (cmd == "compare") return CmdCompare(args);
  if (cmd == "validate") return CmdValidate(args);
  if (cmd == "list") return CmdList(args);
  return Usage();
}

}  // namespace
}  // namespace scenario
}  // namespace jisc

int main(int argc, char** argv) { return jisc::scenario::Main(argc, argv); }
