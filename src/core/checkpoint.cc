#include "core/checkpoint.h"

#include <vector>

#include "common/bytes.h"
#include "plan/plan_text.h"

namespace jisc {

namespace {
constexpr uint64_t kMagic = 0x4a49534343505431ULL;    // "JISCCPT1"
// Mid-migration (fluid) checkpoint: adds per-state completeness flags,
// completed-value sets, and the strategy's migration-state blob. Emitted
// only when at least one state is incomplete, so quiesced checkpoints stay
// byte-identical to the v1 format.
constexpr uint64_t kMagicV2 = 0x4a49534343505432ULL;  // "JISCCPT2"
constexpr uint64_t kGuardMagic = 0x4a49534347524431ULL;  // "JISCGRD1"
}  // namespace

StatusOr<std::string> CheckpointEngine(Engine& engine) {
  if (engine.buffered() != 0) {
    return Status::FailedPrecondition(
        "checkpoint requires an empty arrival buffer (call Drain first)");
  }
  PipelineExecutor& exec = engine.executor();
  bool mid_migration = false;
  for (int id = 0; id < exec.num_ops(); ++id) {
    if (!exec.op(id)->state().complete()) {
      mid_migration = true;
      break;
    }
  }
  if (mid_migration && !engine.strategy().HasMigrationState()) {
    // The installed strategy cannot serialize its completion bookkeeping,
    // so a restore could never finish the migration.
    return Status::FailedPrecondition(
        "checkpoint requires all states complete (migration in flight)");
  }

  ByteWriter w;
  w.PutU64(mid_migration ? kMagicV2 : kMagic);
  w.PutString(engine.plan().ToString());
  const WindowSpec& windows = engine.windows();
  w.PutU64(windows.time_based() ? 1 : 0);
  w.PutU64(static_cast<uint64_t>(windows.num_streams()));
  for (int s = 0; s < windows.num_streams(); ++s) {
    w.PutU64(windows.SizeFor(static_cast<StreamId>(s)));
  }
  w.PutU64(engine.next_stamp());
  w.PutU64(engine.max_seq_seen());

  w.PutU64(static_cast<uint64_t>(exec.num_ops()));
  for (int id = 0; id < exec.num_ops(); ++id) {
    const OperatorState& st = exec.op(id)->state();
    w.PutU64(st.id().bits());
    if (mid_migration) {
      w.PutU64(st.complete() ? 0 : 1);
      if (!st.complete()) {
        std::vector<JoinKey> keys = st.CompletedKeysSorted();
        w.PutU64(keys.size());
        for (JoinKey k : keys) w.PutI64(k);
      }
    }
    w.PutU64(st.live_size());
    st.ForEachLiveEntryCanonical([&](const Tuple& t, Stamp insert_stamp) {
      w.PutU64(insert_stamp);
      w.PutU64(t.parts().size());
      for (const BaseTuple& p : t.parts()) {
        w.PutU64(p.stream);
        w.PutI64(p.key);
        w.PutI64(p.payload);
        w.PutU64(p.seq);
        w.PutU64(p.ts);
      }
    });
  }
  if (mid_migration) {
    w.PutString(engine.strategy().SerializeMigrationState());
  }
  return w.Take();
}

StatusOr<std::unique_ptr<Engine>> RestoreEngine(
    const std::string& bytes, Sink* sink,
    std::unique_ptr<MigrationStrategy> strategy,
    const ProcessorConfig& config) {
  ByteReader r(bytes);
  uint64_t magic = 0;
  Status s = r.GetU64(&magic);
  if (!s.ok()) return s;
  if (magic != kMagic && magic != kMagicV2) {
    return Status::InvalidArgument("not a JISC checkpoint");
  }
  const bool mid_migration = magic == kMagicV2;
  std::string plan_text;
  s = r.GetString(&plan_text);
  if (!s.ok()) return s;
  auto plan = ParsePlan(plan_text);
  if (!plan.ok()) return plan.status();

  uint64_t time_based = 0;
  s = r.GetU64(&time_based);
  if (!s.ok()) return s;
  uint64_t num_streams = 0;
  s = r.GetU64(&num_streams);
  if (!s.ok()) return s;
  if (num_streams == 0 || num_streams > kMaxStreams) {
    return Status::InvalidArgument("corrupt window section");
  }
  std::vector<uint64_t> sizes(num_streams);
  for (uint64_t i = 0; i < num_streams; ++i) {
    s = r.GetU64(&sizes[i]);
    if (!s.ok()) return s;
    if (sizes[i] == 0) return Status::InvalidArgument("zero window size");
  }
  WindowSpec windows = time_based != 0
                           ? WindowSpec::PerStreamTime(std::move(sizes))
                           : WindowSpec::PerStream(std::move(sizes));

  uint64_t next_stamp = 0;
  uint64_t max_seq = 0;
  s = r.GetU64(&next_stamp);
  if (!s.ok()) return s;
  s = r.GetU64(&max_seq);
  if (!s.ok()) return s;

  uint64_t num_ops = 0;
  s = r.GetU64(&num_ops);
  if (!s.ok()) return s;
  if (static_cast<int>(num_ops) != plan.value().num_nodes()) {
    return Status::InvalidArgument("state section does not match the plan");
  }

  StatePool pool;
  for (uint64_t i = 0; i < num_ops; ++i) {
    uint64_t bits = 0;
    s = r.GetU64(&bits);
    if (!s.ok()) return s;
    const PlanNode& node = plan.value().node(static_cast<int>(i));
    if (node.streams.bits() != bits) {
      return Status::InvalidArgument("state identity mismatch");
    }
    StateIndex index = node.kind == OpKind::kNljJoin ? StateIndex::kList
                                                     : StateIndex::kHash;
    auto st = std::make_unique<OperatorState>(node.streams, index);
    bool incomplete = false;
    std::vector<JoinKey> completed_keys;
    if (mid_migration) {
      uint64_t flag = 0;
      s = r.GetU64(&flag);
      if (!s.ok()) return s;
      if (flag > 1) {
        return Status::InvalidArgument("corrupt completeness flag");
      }
      incomplete = flag == 1;
      if (incomplete && node.kind == OpKind::kScan) {
        return Status::InvalidArgument("scan state marked incomplete");
      }
      if (incomplete) {
        uint64_t num_keys = 0;
        s = r.GetU64(&num_keys);
        if (!s.ok()) return s;
        completed_keys.reserve(num_keys);
        for (uint64_t k = 0; k < num_keys; ++k) {
          int64_t key = 0;
          s = r.GetI64(&key);
          if (!s.ok()) return s;
          completed_keys.push_back(static_cast<JoinKey>(key));
        }
      }
    }
    uint64_t entries = 0;
    s = r.GetU64(&entries);
    if (!s.ok()) return s;
    for (uint64_t e = 0; e < entries; ++e) {
      uint64_t insert_stamp = 0;
      s = r.GetU64(&insert_stamp);
      if (!s.ok()) return s;
      uint64_t parts = 0;
      s = r.GetU64(&parts);
      if (!s.ok()) return s;
      if (parts == 0 || parts > static_cast<uint64_t>(kMaxStreams)) {
        return Status::InvalidArgument("corrupt combination");
      }
      std::vector<BaseTuple> bases(parts);
      for (uint64_t pi = 0; pi < parts; ++pi) {
        uint64_t stream = 0;
        s = r.GetU64(&stream);
        if (!s.ok()) return s;
        if (stream >= static_cast<uint64_t>(kMaxStreams)) {
          return Status::InvalidArgument("corrupt stream id");
        }
        bases[pi].stream = static_cast<StreamId>(stream);
        s = r.GetI64(&bases[pi].key);
        if (!s.ok()) return s;
        s = r.GetI64(&bases[pi].payload);
        if (!s.ok()) return s;
        s = r.GetU64(&bases[pi].seq);
        if (!s.ok()) return s;
        s = r.GetU64(&bases[pi].ts);
        if (!s.ok()) return s;
      }
      st->Insert(Tuple::FromParts(std::move(bases), insert_stamp),
                 insert_stamp);
    }
    if (incomplete) {
      st->MarkIncomplete();
      for (JoinKey k : completed_keys) st->MarkKeyCompleted(k);
    }
    pool.Put(std::move(st));
  }
  std::string migration_blob;
  if (mid_migration) {
    s = r.GetString(&migration_blob);
    if (!s.ok()) return s;
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }

  auto engine = std::make_unique<Engine>(plan.value(), windows, sink,
                                         std::move(strategy), config);
  auto exec = std::make_unique<PipelineExecutor>(plan.value(), windows,
                                                 config.exec, &pool);
  engine->ReplaceExecutor(std::move(exec));
  engine->RestoreClocks(next_stamp, max_seq);
  if (mid_migration) {
    s = engine->strategy().RestoreMigrationState(engine.get(),
                                                 migration_blob);
    if (!s.ok()) return s;
  }
  return engine;
}

StatusOr<std::string> CheckpointGuardedEngine(GuardedProcessor& guarded) {
  auto* engine = dynamic_cast<Engine*>(guarded.inner());
  if (engine == nullptr) {
    return Status::FailedPrecondition(
        "guarded checkpoint requires a single-threaded Engine inside the "
        "guard");
  }
  auto inner = CheckpointEngine(*engine);
  if (!inner.ok()) return inner.status();
  ByteWriter guard_bytes;
  guarded.guard().SerializeCanonical(&guard_bytes);
  ByteWriter w;
  w.PutU64(kGuardMagic);
  w.PutString(guard_bytes.Take());
  w.PutString(inner.value());
  return w.Take();
}

StatusOr<std::unique_ptr<GuardedProcessor>> RestoreGuardedEngine(
    const std::string& bytes, Sink* sink,
    std::unique_ptr<MigrationStrategy> strategy,
    const ProcessorConfig& config) {
  ByteReader r(bytes);
  uint64_t magic = 0;
  Status s = r.GetU64(&magic);
  if (!s.ok()) return s;
  if (magic != kGuardMagic) {
    return Status::InvalidArgument("not a guarded JISC checkpoint");
  }
  std::string guard_bytes;
  s = r.GetString(&guard_bytes);
  if (!s.ok()) return s;
  std::string engine_bytes;
  s = r.GetString(&engine_bytes);
  if (!s.ok()) return s;
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after guarded checkpoint");
  }

  TelemetryRegistry* telemetry =
      config.obs != nullptr ? config.obs->telemetry.get() : nullptr;
  ByteReader guard_reader(guard_bytes);
  auto guard = IngressGuard::DeserializeCanonical(&guard_reader, telemetry,
                                                  /*track=*/0);
  if (!guard.ok()) return guard.status();
  if (!guard_reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after guard state");
  }

  auto engine = RestoreEngine(engine_bytes, sink, std::move(strategy), config);
  if (!engine.ok()) return engine.status();
  return std::make_unique<GuardedProcessor>(std::move(engine).value(),
                                            std::move(guard).value());
}

}  // namespace jisc
