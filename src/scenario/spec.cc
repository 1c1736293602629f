#include "scenario/spec.h"

#include <fstream>
#include <set>
#include <sstream>

namespace jisc {
namespace scenario {
namespace {

// Strict object reader: every Get* marks the key as consumed, and
// CheckNoUnknownKeys reports anything left over. Each helper validates the
// JSON type and accumulates the first error (parsing continues so the
// reader stays linear, but the spec is rejected).
class ObjectReader {
 public:
  ObjectReader(const Json& json, std::string context)
      : json_(json), context_(std::move(context)) {
    if (!json.is_object()) {
      Fail("expected an object");
    }
  }

  bool GetString(const char* key, std::string* out) {
    const Json* v = Take(key);
    if (v == nullptr) return false;
    if (!v->is_string()) return Fail(std::string(key) + " must be a string");
    *out = v->AsString();
    return true;
  }

  bool GetBool(const char* key, bool* out) {
    const Json* v = Take(key);
    if (v == nullptr) return false;
    if (!v->is_bool()) return Fail(std::string(key) + " must be a bool");
    *out = v->AsBool();
    return true;
  }

  bool GetU64(const char* key, uint64_t* out) {
    const Json* v = Take(key);
    if (v == nullptr) return false;
    if (!v->is_int() || v->AsInt() < 0) {
      return Fail(std::string(key) + " must be a non-negative integer");
    }
    *out = static_cast<uint64_t>(v->AsInt());
    return true;
  }

  bool GetInt(const char* key, int* out) {
    const Json* v = Take(key);
    if (v == nullptr) return false;
    if (!v->is_int()) return Fail(std::string(key) + " must be an integer");
    *out = static_cast<int>(v->AsInt());
    return true;
  }

  bool GetDouble(const char* key, double* out) {
    const Json* v = Take(key);
    if (v == nullptr) return false;
    if (!v->is_number()) return Fail(std::string(key) + " must be a number");
    *out = v->AsDouble();
    return true;
  }

  bool GetU64List(const char* key, std::vector<uint64_t>* out) {
    const Json* v = Take(key);
    if (v == nullptr) return false;
    if (!v->is_array()) return Fail(std::string(key) + " must be an array");
    out->clear();
    for (const Json& item : v->items()) {
      if (!item.is_int() || item.AsInt() < 0) {
        return Fail(std::string(key) +
                    " must contain non-negative integers");
      }
      out->push_back(static_cast<uint64_t>(item.AsInt()));
    }
    return true;
  }

  // Raw access for nested objects/arrays.
  const Json* Take(const char* key) {
    consumed_.insert(key);
    return json_.Find(key);
  }

  bool Fail(const std::string& msg) {
    if (error_.ok()) {
      error_ = Status::InvalidArgument(context_ + ": " + msg);
    }
    return false;
  }

  Status Finish() {
    if (!error_.ok()) return error_;
    if (!json_.is_object()) return error_;
    for (const auto& [key, value] : json_.members()) {
      if (consumed_.count(key) == 0) {
        return Status::InvalidArgument(context_ + ": unknown key '" + key +
                                       "'");
      }
    }
    return Status::Ok();
  }

 private:
  const Json& json_;
  std::string context_;
  std::set<std::string> consumed_;
  Status error_;
};

const char* InterleaveName(Interleave i) {
  return i == Interleave::kRoundRobin ? "round_robin" : "uniform_random";
}

bool InterleaveFromName(const std::string& name, Interleave* out) {
  if (name == "round_robin") {
    *out = Interleave::kRoundRobin;
    return true;
  }
  if (name == "uniform_random") {
    *out = Interleave::kUniformRandom;
    return true;
  }
  return false;
}

const char* KeyPatternName(KeyPattern p) {
  switch (p) {
    case KeyPattern::kRandom:
      return "random";
    case KeyPattern::kSequential:
      return "sequential";
    case KeyPattern::kBottomFanout:
      return "bottom_fanout";
  }
  return "?";
}

bool KeyPatternFromName(const std::string& name, KeyPattern* out) {
  if (name == "random") {
    *out = KeyPattern::kRandom;
    return true;
  }
  if (name == "sequential") {
    *out = KeyPattern::kSequential;
    return true;
  }
  if (name == "bottom_fanout") {
    *out = KeyPattern::kBottomFanout;
    return true;
  }
  return false;
}

const char* TransitionKindName(TransitionKind k) {
  switch (k) {
    case TransitionKind::kInitial:
      return "initial";
    case TransitionKind::kBestCase:
      return "best_case";
    case TransitionKind::kWorstCase:
      return "worst_case";
    case TransitionKind::kRandomSwap:
      return "random_swap";
  }
  return "?";
}

bool TransitionKindFromName(const std::string& name, TransitionKind* out) {
  if (name == "initial") {
    *out = TransitionKind::kInitial;
    return true;
  }
  if (name == "best_case") {
    *out = TransitionKind::kBestCase;
    return true;
  }
  if (name == "worst_case") {
    *out = TransitionKind::kWorstCase;
    return true;
  }
  if (name == "random_swap") {
    *out = TransitionKind::kRandomSwap;
    return true;
  }
  return false;
}

Status ParseArrival(const Json& json, ArrivalSpec* out) {
  ObjectReader r(json, "arrival");
  std::string s;
  if (r.GetString("interleave", &s) && !InterleaveFromName(s, &out->interleave)) {
    r.Fail("interleave must be round_robin or uniform_random");
  }
  if (r.GetString("key_pattern", &s) &&
      !KeyPatternFromName(s, &out->key_pattern)) {
    r.Fail("key_pattern must be random, sequential, or bottom_fanout");
  }
  r.GetU64("key_domain", &out->key_domain);
  r.GetDouble("zipf_s", &out->zipf_s);
  r.GetU64("fanout", &out->fanout);
  std::vector<uint64_t> streams;
  if (r.GetU64List("fanout_streams", &streams)) {
    out->fanout_streams.clear();
    for (uint64_t v : streams) {
      out->fanout_streams.push_back(static_cast<StreamId>(v));
    }
  }
  r.GetU64("ts_stride", &out->ts_stride);
  return r.Finish();
}

Status ParsePhase(const Json& json, int index, PhaseSpec* out) {
  std::ostringstream ctx;
  ctx << "phases[" << index << "]";
  ObjectReader r(json, ctx.str());
  r.GetString("label", &out->label);
  r.GetU64("tuples", &out->tuples);
  uint64_t v = 0;
  if (r.GetU64("force_stream", &v)) out->force_stream = static_cast<StreamId>(v);
  if (r.GetU64("key_domain", &v)) out->key_domain = v;
  return r.Finish();
}

Status ParseEvent(const Json& json, int index, EventSpec* out) {
  std::ostringstream ctx;
  ctx << "schedule[" << index << "]";
  ObjectReader r(json, ctx.str());
  r.GetU64("at", &out->at);
  std::string t;
  bool has_transition = r.GetString("transition", &t);
  bool checkpoint = false;
  bool has_checkpoint = r.GetBool("checkpoint_restore", &checkpoint);
  if (has_transition == (has_checkpoint && checkpoint)) {
    r.Fail("exactly one of 'transition' or 'checkpoint_restore': true "
           "is required");
  } else if (has_transition) {
    out->action = EventSpec::Action::kTransition;
    if (!TransitionKindFromName(t, &out->transition)) {
      r.Fail("transition must be initial, best_case, worst_case, or "
             "random_swap");
    }
  } else {
    out->action = EventSpec::Action::kCheckpointRestore;
  }
  return r.Finish();
}

Status ParseTelemetry(const Json& json, TelemetrySpec* out) {
  ObjectReader r(json, "telemetry");
  r.GetBool("enabled", &out->enabled);
  r.GetU64("period_ms", &out->period_ms);
  r.GetInt("watchdog_samples", &out->watchdog_samples);
  r.GetBool("expect_no_stragglers", &out->expect_no_stragglers);
  int shard = 0;
  if (r.GetInt("expect_straggler_shard", &shard)) {
    out->expect_straggler_shard = shard;
  }
  return r.Finish();
}

Status ParseFault(const Json& json, FaultSpec* out) {
  ObjectReader r(json, "fault");
  r.GetInt("straggler_shard", &out->straggler_shard);
  r.GetU64("stall_ms", &out->stall_ms);
  r.GetU64("stall_every", &out->stall_every);
  r.GetU64("drop_every", &out->drop_every);
  r.GetU64("duplicate_every", &out->duplicate_every);
  r.GetU64("reorder_window", &out->reorder_window);
  r.GetU64("drop_burst", &out->drop_burst);
  r.GetU64("drop_burst_at", &out->drop_burst_at);
  return r.Finish();
}

Status ParseIngress(const Json& json, IngressSpec* out) {
  ObjectReader r(json, "ingress");
  r.GetBool("enabled", &out->enabled);
  r.GetU64("dedup_window", &out->dedup_window);
  r.GetU64("reorder_window", &out->reorder_window);
  r.GetString("overflow", &out->overflow);
  r.GetU64("anomaly_threshold", &out->anomaly_threshold);
  return r.Finish();
}

Status ParseMigration(const Json& json, MigrationSpec* out) {
  ObjectReader r(json, "migration");
  r.GetString("mode", &out->mode);
  r.GetU64("batch_keys", &out->batch_keys);
  r.GetU64("delay_budget_us", &out->delay_budget_us);
  return r.Finish();
}

Status ParseExpect(const Json& json, ExpectSpec* out) {
  ObjectReader r(json, "expect");
  uint64_t v = 0;
  if (r.GetU64("output_delay_p99_us", &v)) out->output_delay_p99_us = v;
  return r.Finish();
}

Status ParseThresholds(const Json& json, std::map<std::string, double>* out) {
  if (!json.is_object()) {
    return Status::InvalidArgument("thresholds: expected an object");
  }
  for (const auto& [key, value] : json.members()) {
    if (!value.is_number() || value.AsDouble() < 0) {
      return Status::InvalidArgument("thresholds." + key +
                                     " must be a non-negative number");
    }
    (*out)[key] = value.AsDouble();
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ProcessorKind> StrategyFromName(const std::string& name) {
  static constexpr ProcessorKind kAll[] = {
      ProcessorKind::kJisc,          ProcessorKind::kJiscFirstReceipt,
      ProcessorKind::kMovingState,   ProcessorKind::kParallelTrack,
      ProcessorKind::kHybridTrack,   ProcessorKind::kCacq,
      ProcessorKind::kMJoin,         ProcessorKind::kStairsEager,
      ProcessorKind::kStairsJisc,    ProcessorKind::kStaticPipeline,
  };
  for (ProcessorKind kind : kAll) {
    if (name == ProcessorKindName(kind)) return kind;
  }
  std::ostringstream os;
  os << "unknown strategy '" << name << "' (expected one of:";
  for (ProcessorKind kind : kAll) os << ' ' << ProcessorKindName(kind);
  os << ')';
  return Status::InvalidArgument(os.str());
}

StatusOr<Spec> ParseSpec(const Json& json) {
  Spec spec;
  ObjectReader r(json, "spec");
  r.GetString("name", &spec.name);
  r.GetString("description", &spec.description);
  r.GetU64("seed", &spec.seed);
  r.GetInt("streams", &spec.streams);
  r.GetU64("window", &spec.window);
  r.GetU64List("windows", &spec.windows);
  r.GetString("window_mode", &spec.window_mode);
  if (const Json* arrival = r.Take("arrival")) {
    Status s = ParseArrival(*arrival, &spec.arrival);
    if (!s.ok()) return s;
  }
  r.GetDouble("warmup_windows", &spec.warmup_windows);
  uint64_t wt = 0;
  if (r.GetU64("warmup_tuples", &wt)) spec.warmup_tuples = wt;
  if (const Json* phases = r.Take("phases")) {
    if (!phases->is_array()) {
      return Status::InvalidArgument("phases must be an array");
    }
    for (size_t i = 0; i < phases->items().size(); ++i) {
      PhaseSpec phase;
      Status s = ParsePhase(phases->items()[i], static_cast<int>(i), &phase);
      if (!s.ok()) return s;
      spec.phases.push_back(std::move(phase));
    }
  }
  if (const Json* schedule = r.Take("schedule")) {
    if (!schedule->is_array()) {
      return Status::InvalidArgument("schedule must be an array");
    }
    for (size_t i = 0; i < schedule->items().size(); ++i) {
      EventSpec event;
      Status s = ParseEvent(schedule->items()[i], static_cast<int>(i), &event);
      if (!s.ok()) return s;
      spec.schedule.push_back(event);
    }
  }
  r.GetString("strategy", &spec.strategy);
  r.GetInt("parallelism", &spec.parallelism);
  r.GetBool("service_times", &spec.service_times);
  if (const Json* telemetry = r.Take("telemetry")) {
    Status ts = ParseTelemetry(*telemetry, &spec.telemetry);
    if (!ts.ok()) return ts;
  }
  if (const Json* fault = r.Take("fault")) {
    Status fs = ParseFault(*fault, &spec.fault);
    if (!fs.ok()) return fs;
  }
  if (const Json* ingress = r.Take("ingress")) {
    Status is = ParseIngress(*ingress, &spec.ingress);
    if (!is.ok()) return is;
  }
  if (const Json* migration = r.Take("migration")) {
    Status ms = ParseMigration(*migration, &spec.migration);
    if (!ms.ok()) return ms;
  }
  if (const Json* expect = r.Take("expect")) {
    Status es = ParseExpect(*expect, &spec.expect);
    if (!es.ok()) return es;
  }
  r.GetBool("gate", &spec.gate);
  if (const Json* thresholds = r.Take("thresholds")) {
    Status s = ParseThresholds(*thresholds, &spec.thresholds);
    if (!s.ok()) return s;
  }
  Status s = r.Finish();
  if (!s.ok()) return s;
  s = ValidateSpec(spec);
  if (!s.ok()) return s;
  return spec;
}

StatusOr<Spec> ParseSpecText(const std::string& text) {
  StatusOr<Json> json = Json::Parse(text);
  if (!json.ok()) return json.status();
  return ParseSpec(json.value());
}

StatusOr<Spec> LoadSpecFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot open spec file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  StatusOr<Spec> spec = ParseSpecText(buf.str());
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + spec.status().message());
  }
  return spec;
}

Json SpecToJson(const Spec& spec) {
  Json j = Json::Object();
  j.Set("name", spec.name);
  if (!spec.description.empty()) j.Set("description", spec.description);
  j.Set("seed", spec.seed);
  j.Set("streams", spec.streams);
  if (spec.windows.empty()) {
    j.Set("window", spec.window);
  } else {
    Json windows = Json::Array();
    for (uint64_t w : spec.windows) windows.Append(w);
    j.Set("windows", std::move(windows));
  }
  if (spec.window_mode != "count") j.Set("window_mode", spec.window_mode);
  Json arrival = Json::Object();
  arrival.Set("interleave", InterleaveName(spec.arrival.interleave));
  arrival.Set("key_pattern", KeyPatternName(spec.arrival.key_pattern));
  if (spec.arrival.key_domain != 0) {
    arrival.Set("key_domain", spec.arrival.key_domain);
  }
  if (spec.arrival.zipf_s != 0) arrival.Set("zipf_s", spec.arrival.zipf_s);
  if (spec.arrival.key_pattern == KeyPattern::kBottomFanout) {
    arrival.Set("fanout", spec.arrival.fanout);
    if (!spec.arrival.fanout_streams.empty()) {
      Json streams = Json::Array();
      for (StreamId s : spec.arrival.fanout_streams) {
        streams.Append(static_cast<uint64_t>(s));
      }
      arrival.Set("fanout_streams", std::move(streams));
    }
  }
  if (spec.arrival.ts_stride != 1) {
    arrival.Set("ts_stride", spec.arrival.ts_stride);
  }
  j.Set("arrival", std::move(arrival));
  if (spec.warmup_tuples.has_value()) {
    j.Set("warmup_tuples", *spec.warmup_tuples);
  } else {
    j.Set("warmup_windows", spec.warmup_windows);
  }
  Json phases = Json::Array();
  for (const PhaseSpec& p : spec.phases) {
    Json phase = Json::Object();
    if (!p.label.empty()) phase.Set("label", p.label);
    phase.Set("tuples", p.tuples);
    if (p.force_stream.has_value()) {
      phase.Set("force_stream", static_cast<uint64_t>(*p.force_stream));
    }
    if (p.key_domain.has_value()) phase.Set("key_domain", *p.key_domain);
    phases.Append(std::move(phase));
  }
  j.Set("phases", std::move(phases));
  if (!spec.schedule.empty()) {
    Json schedule = Json::Array();
    for (const EventSpec& e : spec.schedule) {
      Json event = Json::Object();
      event.Set("at", e.at);
      if (e.action == EventSpec::Action::kTransition) {
        event.Set("transition", TransitionKindName(e.transition));
      } else {
        event.Set("checkpoint_restore", true);
      }
      schedule.Append(std::move(event));
    }
    j.Set("schedule", std::move(schedule));
  }
  j.Set("strategy", spec.strategy);
  if (spec.parallelism != 1) j.Set("parallelism", spec.parallelism);
  if (spec.service_times) j.Set("service_times", true);
  {
    const TelemetrySpec def;
    const TelemetrySpec& t = spec.telemetry;
    if (t.enabled || t.period_ms != def.period_ms ||
        t.watchdog_samples != def.watchdog_samples ||
        t.expect_no_stragglers || t.expect_straggler_shard.has_value()) {
      Json telemetry = Json::Object();
      if (t.enabled) telemetry.Set("enabled", true);
      if (t.period_ms != def.period_ms) telemetry.Set("period_ms", t.period_ms);
      if (t.watchdog_samples != def.watchdog_samples) {
        telemetry.Set("watchdog_samples", t.watchdog_samples);
      }
      if (t.expect_no_stragglers) telemetry.Set("expect_no_stragglers", true);
      if (t.expect_straggler_shard.has_value()) {
        telemetry.Set("expect_straggler_shard", *t.expect_straggler_shard);
      }
      j.Set("telemetry", std::move(telemetry));
    }
  }
  {
    const FaultSpec def;
    const FaultSpec& f = spec.fault;
    if (f.straggler_shard != def.straggler_shard || f.stall_ms != def.stall_ms ||
        f.stall_every != def.stall_every || f.drop_every != def.drop_every ||
        f.duplicate_every != def.duplicate_every ||
        f.reorder_window != def.reorder_window ||
        f.drop_burst != def.drop_burst ||
        f.drop_burst_at != def.drop_burst_at) {
      Json fault = Json::Object();
      if (f.straggler_shard != def.straggler_shard) {
        fault.Set("straggler_shard", f.straggler_shard);
      }
      if (f.stall_ms != def.stall_ms) fault.Set("stall_ms", f.stall_ms);
      if (f.stall_every != def.stall_every) {
        fault.Set("stall_every", f.stall_every);
      }
      if (f.drop_every != def.drop_every) {
        fault.Set("drop_every", f.drop_every);
      }
      if (f.duplicate_every != def.duplicate_every) {
        fault.Set("duplicate_every", f.duplicate_every);
      }
      if (f.reorder_window != def.reorder_window) {
        fault.Set("reorder_window", f.reorder_window);
      }
      if (f.drop_burst != def.drop_burst) {
        fault.Set("drop_burst", f.drop_burst);
      }
      if (f.drop_burst_at != def.drop_burst_at) {
        fault.Set("drop_burst_at", f.drop_burst_at);
      }
      j.Set("fault", std::move(fault));
    }
  }
  {
    const IngressSpec def;
    const IngressSpec& in = spec.ingress;
    if (in.enabled || in.dedup_window != def.dedup_window ||
        in.reorder_window != def.reorder_window ||
        in.overflow != def.overflow ||
        in.anomaly_threshold != def.anomaly_threshold) {
      Json ingress = Json::Object();
      if (in.enabled) ingress.Set("enabled", true);
      if (in.dedup_window != def.dedup_window) {
        ingress.Set("dedup_window", in.dedup_window);
      }
      if (in.reorder_window != def.reorder_window) {
        ingress.Set("reorder_window", in.reorder_window);
      }
      if (in.overflow != def.overflow) ingress.Set("overflow", in.overflow);
      if (in.anomaly_threshold != def.anomaly_threshold) {
        ingress.Set("anomaly_threshold", in.anomaly_threshold);
      }
      j.Set("ingress", std::move(ingress));
    }
  }
  {
    const MigrationSpec def;
    const MigrationSpec& m = spec.migration;
    if (m.mode != def.mode || m.batch_keys != def.batch_keys ||
        m.delay_budget_us != def.delay_budget_us) {
      Json migration = Json::Object();
      if (m.mode != def.mode) migration.Set("mode", m.mode);
      if (m.batch_keys != def.batch_keys) {
        migration.Set("batch_keys", m.batch_keys);
      }
      if (m.delay_budget_us != def.delay_budget_us) {
        migration.Set("delay_budget_us", m.delay_budget_us);
      }
      j.Set("migration", std::move(migration));
    }
  }
  if (spec.expect.output_delay_p99_us.has_value()) {
    Json expect = Json::Object();
    expect.Set("output_delay_p99_us", *spec.expect.output_delay_p99_us);
    j.Set("expect", std::move(expect));
  }
  if (!spec.gate) j.Set("gate", false);
  if (!spec.thresholds.empty()) {
    Json thresholds = Json::Object();
    for (const auto& [key, value] : spec.thresholds) {
      thresholds.Set(key, value);
    }
    j.Set("thresholds", std::move(thresholds));
  }
  return j;
}

uint64_t TotalMeasuredTuples(const Spec& spec) {
  uint64_t total = 0;
  for (const PhaseSpec& p : spec.phases) total += p.tuples;
  return total;
}

Status ValidateSpec(const Spec& spec) {
  auto invalid = [](const std::string& msg) {
    return Status::InvalidArgument("spec: " + msg);
  };
  if (spec.name.empty()) return invalid("name is required");
  if (spec.streams < 2) return invalid("streams must be >= 2");
  if (spec.windows.empty()) {
    if (spec.window == 0) return invalid("window must be > 0");
  } else {
    if (spec.windows.size() != static_cast<size_t>(spec.streams)) {
      return invalid("windows must list one size per stream");
    }
    for (uint64_t w : spec.windows) {
      if (w == 0) return invalid("windows entries must be > 0");
    }
  }
  if (spec.window_mode != "count" && spec.window_mode != "time") {
    return invalid("window_mode must be count or time");
  }
  if (spec.arrival.ts_stride == 0) {
    return invalid("arrival.ts_stride must be > 0");
  }
  if (spec.arrival.ts_stride != 1 && spec.window_mode != "time") {
    return invalid("arrival.ts_stride requires window_mode time "
                   "(count windows ignore event time)");
  }
  if (spec.arrival.zipf_s != 0 &&
      spec.arrival.key_pattern != KeyPattern::kRandom) {
    return invalid("zipf_s requires key_pattern random");
  }
  for (StreamId s : spec.arrival.fanout_streams) {
    if (s >= spec.streams) return invalid("fanout_streams entry out of range");
  }
  if (spec.warmup_windows < 0) return invalid("warmup_windows must be >= 0");
  if (spec.phases.empty()) return invalid("at least one phase is required");
  for (const PhaseSpec& p : spec.phases) {
    if (p.tuples == 0) return invalid("phase tuples must be > 0");
    if (p.force_stream.has_value() && *p.force_stream >= spec.streams) {
      return invalid("phase force_stream out of range");
    }
    if (p.key_domain.has_value() && *p.key_domain == 0) {
      return invalid("phase key_domain must be > 0");
    }
  }
  uint64_t total = TotalMeasuredTuples(spec);
  for (const EventSpec& e : spec.schedule) {
    if (e.at > total) return invalid("schedule event offset past end of run");
  }
  StatusOr<ProcessorKind> kind = StrategyFromName(spec.strategy);
  if (!kind.ok()) return kind.status();
  if (spec.parallelism < 1 || spec.parallelism > kMaxParallelism) {
    return invalid("parallelism must be in [1, " +
                   std::to_string(kMaxParallelism) + "]");
  }
  bool engine_kind = IsEngineKind(kind.value());
  if (spec.parallelism > 1 && !engine_kind) {
    return invalid("strategy '" + spec.strategy +
                   "' does not support parallelism > 1");
  }
  for (const EventSpec& e : spec.schedule) {
    if (e.action == EventSpec::Action::kCheckpointRestore) {
      if (!engine_kind) {
        return invalid("checkpoint_restore requires an engine strategy "
                       "(jisc, jisc-first-receipt, moving-state, "
                       "pipeline-shj)");
      }
      if (spec.parallelism > 1) {
        return invalid("checkpoint_restore requires parallelism 1");
      }
    }
  }
  const TelemetrySpec& tel = spec.telemetry;
  if (tel.period_ms == 0) return invalid("telemetry.period_ms must be > 0");
  if (tel.watchdog_samples < 2) {
    return invalid("telemetry.watchdog_samples must be >= 2");
  }
  if ((tel.expect_no_stragglers || tel.expect_straggler_shard.has_value()) &&
      !tel.enabled) {
    return invalid("telemetry expectations require telemetry.enabled");
  }
  if (tel.expect_no_stragglers && tel.expect_straggler_shard.has_value()) {
    return invalid("telemetry: expect_no_stragglers and "
                   "expect_straggler_shard are mutually exclusive");
  }
  if (tel.expect_straggler_shard.has_value() &&
      (*tel.expect_straggler_shard < 0 ||
       *tel.expect_straggler_shard >= spec.parallelism)) {
    return invalid("telemetry.expect_straggler_shard out of range");
  }
  const FaultSpec& fault = spec.fault;
  if (fault.straggler_shard >= 0) {
    if (spec.parallelism <= 1) {
      return invalid("fault.straggler_shard requires parallelism > 1");
    }
    if (fault.straggler_shard >= spec.parallelism) {
      return invalid("fault.straggler_shard out of range");
    }
    if (fault.stall_ms == 0) return invalid("fault.stall_ms must be > 0");
    if (fault.stall_every == 0) return invalid("fault.stall_every must be > 0");
  } else if (fault.stall_ms != 0) {
    return invalid("fault.stall_ms requires fault.straggler_shard");
  }
  // Dropping every arrival (drop_every == 1) would leave the measured stage
  // empty; 0 disables the fault, anything >= 2 thins the stream.
  if (fault.drop_every == 1) {
    return invalid("fault.drop_every must be 0 (off) or >= 2");
  }
  // Same shape for duplication: 1 would double the whole stream — a
  // different workload, not a fault.
  if (fault.duplicate_every == 1) {
    return invalid("fault.duplicate_every must be 0 (off) or >= 2");
  }
  if (fault.drop_burst == 0 && fault.drop_burst_at != 0) {
    return invalid("fault.drop_burst_at requires fault.drop_burst > 0");
  }
  if (fault.drop_burst > 0 && fault.drop_burst_at >= total) {
    return invalid("fault.drop_burst_at past end of run");
  }
  const IngressSpec& ingress = spec.ingress;
  if (ingress.overflow != "admit_late" && ingress.overflow != "drop_late" &&
      ingress.overflow != "fail") {
    return invalid("ingress.overflow must be admit_late, drop_late, or fail");
  }
  if (ingress.enabled) {
    if (ingress.dedup_window == 0) {
      return invalid("ingress.dedup_window must be > 0");
    }
    if (ingress.reorder_window == 0) {
      return invalid("ingress.reorder_window must be > 0");
    }
  }
  if (ingress.anomaly_threshold > 0) {
    if (!ingress.enabled) {
      return invalid("ingress.anomaly_threshold requires ingress.enabled");
    }
    if (!tel.enabled) {
      return invalid("ingress.anomaly_threshold requires telemetry.enabled");
    }
  }
  const MigrationSpec& mig = spec.migration;
  if (mig.mode != "all_at_once" && mig.mode != "fluid") {
    return invalid("migration.mode must be all_at_once or fluid");
  }
  if (mig.mode == "fluid") {
    // Fluid pacing exists where a transition carries state: the engine
    // strategies and the multi-plan trackers. The eddy family and the
    // static pipeline have no migration stage to pace.
    switch (kind.value()) {
      case ProcessorKind::kJisc:
      case ProcessorKind::kJiscFirstReceipt:
      case ProcessorKind::kMovingState:
      case ProcessorKind::kParallelTrack:
      case ProcessorKind::kHybridTrack:
        break;
      default:
        return invalid("migration.mode fluid is not supported by strategy '" +
                       spec.strategy + "'");
    }
  }
  if (spec.expect.output_delay_p99_us.has_value() &&
      *spec.expect.output_delay_p99_us == 0) {
    return invalid("expect.output_delay_p99_us must be > 0");
  }
  return Status::Ok();
}

ProcessorConfig ToProcessorConfig(const Spec& spec) {
  ProcessorConfig config;
  config.parallelism = spec.parallelism;
  // Straggler fault injection rides the shard options; only the engine
  // kinds at parallelism > 1 reach it (ValidateSpec enforces that).
  if (spec.fault.straggler_shard >= 0) {
    config.shards.straggler_shard = spec.fault.straggler_shard;
    config.shards.straggler_stall_ns = spec.fault.stall_ms * 1000000ull;
    config.shards.straggler_stall_every = spec.fault.stall_every;
  }
  // The guard's buffer bounds are real bounds, not workload magnitudes:
  // they stay unscaled.
  const IngressSpec& ingress = spec.ingress;
  if (ingress.enabled) {
    config.ingress.enabled = true;
    config.ingress.dedup_window = ingress.dedup_window;
    config.ingress.reorder_window = ingress.reorder_window;
    config.ingress.overflow =
        ingress.overflow == "drop_late"
            ? IngressGuard::OverflowPolicy::kDropLate
            : (ingress.overflow == "fail"
                   ? IngressGuard::OverflowPolicy::kFail
                   : IngressGuard::OverflowPolicy::kAdmitLate);
  }
  // all_at_once is the zero value.
  if (spec.migration.mode == "fluid") {
    config.fluid.mode = FluidOptions::Mode::kFluid;
  }
  config.fluid.batch_keys = spec.migration.batch_keys;
  config.fluid.delay_budget_us = spec.migration.delay_budget_us;
  return config;
}

}  // namespace scenario
}  // namespace jisc
