#include "workload.h"

#include "common/random.h"

namespace jiscperf {

namespace {

// Open-loop rates are about a quarter of each workload's closed-loop
// throughput on a 4-vCPU x86-64 VM (the sharded one about an eighth). At
// half, a host slowdown of 30% left so little headroom that queues behind
// transitions took seconds to drain and p99 measured the host more than the
// engine. Hot-key inputs differ up to sixfold in cost, so that rate sits
// below the slowest one's throughput.
const WorkloadSpec kWorkloads[] = {
    {.name = "steady",
     .window = 10000,
     .key_domain = 10000,
     .inputs = 4,
     .warmup_tuples = 48000,
     .pass_tuples = 200000,
     .segment_tuples = 5000,
     .open_loop_rate = 100000},
    {.name = "migrate",
     .window = 10000,
     .key_domain = 10000,
     .warmup_tuples = 48000,
     .pass_tuples = 200000,
     .segment_tuples = 5000,
     .transition_every = 50000,
     .open_loop_rate = 50000},
    {.name = "hotkey",
     .window = 200,
     .key_domain = 4000,
     .zipf_s = 0.8,
     .inputs = 16,
     .warmup_tuples = 960,
     .pass_tuples = 5000,
     .segment_tuples = 5000,
     .open_loop_rate = 1000},
    {.name = "sharded",
     .window = 10000,
     .key_domain = 10000,
     .warmup_tuples = 48000,
     .pass_tuples = 200000,
     .segment_tuples = 25000,
     .shards = 3,
     .closed_passes = 4,
     .open_loop_rate = 100000},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<jisc::BaseTuple> GenerateInput(const WorkloadSpec& spec,
                                           uint64_t seed, int index) {
  jisc::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x6a09e667f3bcc909ULL +
                static_cast<uint64_t>(index) * 0xbf58476d1ce4e5b9ULL);
  const jisc::ZipfDistribution keys(spec.key_domain, spec.zipf_s);
  const uint64_t n = spec.warmup_tuples + spec.pass_tuples;
  std::vector<jisc::BaseTuple> input(n);
  for (uint64_t i = 0; i < n; ++i) {
    jisc::BaseTuple& t = input[i];
    t.stream = static_cast<jisc::StreamId>(
        rng.UniformU64(static_cast<uint64_t>(spec.streams)));
    t.key = static_cast<jisc::JoinKey>(keys.Sample(&rng));
    t.payload = static_cast<int64_t>(i);
    t.seq = i + 1;
    t.ts = i + 1;
  }
  return input;
}

jisc::LogicalPlan InitialPlan(const WorkloadSpec& spec) {
  std::vector<jisc::StreamId> order;
  for (int s = 0; s < spec.streams; ++s) {
    order.push_back(static_cast<jisc::StreamId>(s));
  }
  return jisc::LogicalPlan::LeftDeep(order, jisc::OpKind::kHashJoin);
}

jisc::LogicalPlan ReversedPlan(const WorkloadSpec& spec) {
  std::vector<jisc::StreamId> order;
  for (int s = spec.streams - 1; s >= 0; --s) {
    order.push_back(static_cast<jisc::StreamId>(s));
  }
  return jisc::LogicalPlan::LeftDeep(order, jisc::OpKind::kHashJoin);
}

jisc::WindowSpec Windows(const WorkloadSpec& spec) {
  return jisc::WindowSpec::Uniform(spec.streams, spec.window);
}

}  // namespace jiscperf
