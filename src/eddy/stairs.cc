#include "eddy/stairs.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/validate.h"

namespace jisc {

StairsExecutor::StairsExecutor(const LogicalPlan& plan,
                               const WindowSpec& windows, Sink* sink,
                               MigrationPolicy policy)
    : policy_(policy), sink_(sink) {
  auto order = plan.LeftDeepOrder();
  JISC_CHECK(order.ok()) << "STAIRs executor expects a left-deep plan";
  order_ = order.value();
  stems_.resize(static_cast<size_t>(windows.num_streams()));
  for (StreamId s : order_) {
    stems_[s] = std::make_unique<SteM>(s, windows.SizeFor(s),
                                       windows.mode());
  }
  prefix_.resize(order_.size());
  StreamSet acc = StreamSet::Single(order_[0]);
  for (size_t k = 1; k < order_.size(); ++k) {
    acc = StreamSet::Union(acc, StreamSet::Single(order_[k]));
    prefix_[k].streams = acc;
    prefix_[k].state = std::make_unique<OperatorState>(acc, StateIndex::kHash);
  }
}

uint64_t StairsExecutor::StateMemory() const {
  uint64_t bytes = 0;
  ForEachState([&](const OperatorState& st) { bytes += StateBytes(st); });
  return bytes;
}

void StairsExecutor::ForEachState(
    const std::function<void(const OperatorState&)>& fn) const {
  for (const auto& stem : stems_) {
    if (stem != nullptr) fn(stem->state());
  }
  for (size_t k = 1; k < prefix_.size(); ++k) {
    if (prefix_[k].state != nullptr) fn(*prefix_[k].state);
  }
}

int StairsExecutor::PositionOf(StreamId s) const {
  for (size_t i = 0; i < order_.size(); ++i) {
    if (order_[i] == s) return static_cast<int>(i);
  }
  return -1;
}

int StairsExecutor::num_incomplete() const {
  int n = 0;
  for (size_t k = 1; k < prefix_.size(); ++k) {
    if (!prefix_[k].state->complete()) ++n;
  }
  return n;
}

void StairsExecutor::RemoveExpired(const BaseTuple& expired, Stamp stamp) {
  int pos = PositionOf(expired.stream);
  JISC_CHECK(pos >= 0);
  // Every prefix state from the stream's position upward may hold
  // combinations with the expired tuple. Incomplete states are scrubbed
  // unconditionally (the Section 4.2 rule: no early stop below a
  // materialized ancestor).
  for (size_t k = std::max(pos, 1); k < prefix_.size(); ++k) {
    int n = prefix_[k].state->RemoveContaining(expired.seq, expired.key,
                                               stamp, nullptr);
    metrics_.removals += static_cast<uint64_t>(n);
  }
}

void StairsExecutor::CompletePrefixForKey(size_t k, JoinKey v, Stamp p) {
  OperatorState& st = *prefix_[k].state;
  if (st.complete() || st.IsKeyCompleted(v)) return;
  std::vector<Tuple> left;
  if (k == 1) {
    stems_[order_[0]]->Probe(v, p, &left);
  } else {
    CompletePrefixForKey(k - 1, v, p);
    prefix_[k - 1].state->CollectMatches(v, p, &left);
  }
  std::vector<Tuple> right;
  stems_[order_[k]]->Probe(v, p, &right);
  metrics_.probe_entries += left.size() + right.size();
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      Tuple combo = Tuple::Concat(l, r, incomplete_since_, false);
      if (st.Insert(combo, incomplete_since_, /*dedup=*/true)) {
        ++metrics_.completion_inserts;
      } else {
        ++metrics_.completion_dedup_hits;
      }
    }
  }
  st.MarkKeyCompleted(v);
  ++metrics_.completions;
}

void StairsExecutor::MaterializePrefix(size_t k, Stamp stamp) {
  OperatorState& st = *prefix_[k].state;
  st.Clear();
  auto insert_cross = [&](const OperatorState& left, SteM* right) {
    left.ForEachLive([&](const Tuple& l) {
      std::vector<Tuple> rs;
      right->state().CollectLiveByKey(l.key(), &rs);
      metrics_.probe_entries += rs.size() + 1;
      for (const Tuple& r : rs) {
        st.Insert(Tuple::Concat(l, r, stamp, false), stamp);
        ++metrics_.inserts;
      }
    });
  };
  if (k == 1) {
    insert_cross(stems_[order_[0]]->state(), stems_[order_[1]].get());
  } else {
    insert_cross(*prefix_[k - 1].state, stems_[order_[k]].get());
  }
  st.MarkComplete();
}

void StairsExecutor::Push(const BaseTuple& tuple) {
  Stamp stamp = next_stamp_++;
  ++metrics_.arrivals;
  max_seq_seen_ = std::max(max_seq_seen_, tuple.seq);
  // Lazy completion detection: once every pre-transition tuple has expired
  // from every SteM, all still-incomplete prefix STAIRs are trivially
  // complete (window turnover).
  if (boundary_seq_ > 0 && ++pushes_since_check_ >= 256) {
    pushes_since_check_ = 0;
    bool turned_over = true;
    for (StreamId s : order_) {
      if (stems_[s]->fill() > 0 && stems_[s]->OldestLiveSeq() < boundary_seq_) {
        turned_over = false;
        break;
      }
    }
    if (turned_over) {
      for (size_t k = 1; k < prefix_.size(); ++k) {
        if (!prefix_[k].state->complete()) prefix_[k].state->MarkComplete();
      }
      boundary_seq_ = 0;
      incomplete_since_ = 0;
    }
  }
  SteM* own = stems_[tuple.stream].get();
  JISC_CHECK(own != nullptr);
  std::vector<BaseTuple> expired = own->Insert(tuple, stamp);
  ++metrics_.inserts;
  for (const BaseTuple& e : expired) RemoveExpired(e, stamp);

  int pos = PositionOf(tuple.stream);
  JISC_CHECK(pos >= 0);
  size_t m = order_.size();

  std::vector<Tuple> frontier;
  Tuple seed = Tuple::FromBase(tuple, stamp, true);
  size_t next_level;
  if (pos <= 1) {
    // Bottom pair: probe the sibling SteM directly.
    ++metrics_.eddy_visits;
    ++metrics_.probes;
    std::vector<Tuple> matches;
    stems_[order_[pos == 0 ? 1 : 0]]->Probe(seed.key(), stamp, &matches);
    metrics_.probe_entries += matches.size();
    metrics_.matches += matches.size();
    for (const Tuple& match : matches) {
      Tuple combo = Tuple::Concat(seed, match, stamp, true);
      prefix_[1].state->Insert(combo, stamp);
      ++metrics_.inserts;
      frontier.push_back(std::move(combo));
    }
    next_level = 2;
  } else {
    // Probe the prefix STAIR below this stream's position; complete it on
    // demand under the lazy policy (the on-demand Promote of Section 4.6).
    OperatorState& below = *prefix_[static_cast<size_t>(pos) - 1].state;
    if (!below.complete() && policy_ == MigrationPolicy::kLazyJisc) {
      CompletePrefixForKey(static_cast<size_t>(pos) - 1, seed.key(), stamp);
    }
    ++metrics_.eddy_visits;
    ++metrics_.probes;
    std::vector<Tuple> matches;
    below.CollectMatches(seed.key(), stamp, &matches);
    metrics_.probe_entries += matches.size();
    metrics_.matches += matches.size();
    for (const Tuple& match : matches) {
      Tuple combo = Tuple::Concat(seed, match, stamp, true);
      prefix_[static_cast<size_t>(pos)].state->Insert(combo, stamp);
      ++metrics_.inserts;
      frontier.push_back(std::move(combo));
    }
    next_level = static_cast<size_t>(pos) + 1;
  }
  for (size_t k = next_level; k < m && !frontier.empty(); ++k) {
    std::vector<Tuple> next;
    for (const Tuple& t : frontier) {
      ++metrics_.eddy_visits;
      ++metrics_.probes;
      std::vector<Tuple> matches;
      stems_[order_[k]]->Probe(t.key(), stamp, &matches);
      metrics_.probe_entries += matches.size();
      metrics_.matches += matches.size();
      for (const Tuple& match : matches) {
        Tuple combo = Tuple::Concat(t, match, stamp, true);
        prefix_[k].state->Insert(combo, stamp);
        ++metrics_.inserts;
        next.push_back(std::move(combo));
      }
    }
    frontier = std::move(next);
  }
  for (const Tuple& out : frontier) {
    ++metrics_.outputs;
    if (sink_ != nullptr) sink_->OnOutput(out, stamp);
  }
}

Status StairsExecutor::RequestTransition(const LogicalPlan& new_plan) {
  Status valid = new_plan.Validate();
  if (!valid.ok()) return valid;
  auto order = new_plan.LeftDeepOrder();
  if (!order.ok()) return order.status();
  for (StreamId s : order.value()) {
    if (s >= stems_.size() || stems_[s] == nullptr) {
      return Status::InvalidArgument("plan references unknown stream");
    }
  }
  Stamp stamp = next_stamp_++;

  // Definition 1 over the prefix states: reuse matching stream sets,
  // keeping their completeness (Section 4.5).
  std::vector<Stair> old = std::move(prefix_);
  order_ = std::move(order).value();
  prefix_.clear();
  prefix_.resize(order_.size());
  StreamSet acc = StreamSet::Single(order_[0]);
  for (size_t k = 1; k < order_.size(); ++k) {
    acc = StreamSet::Union(acc, StreamSet::Single(order_[k]));
    prefix_[k].streams = acc;
    for (auto& o : old) {
      if (o.state != nullptr && o.streams == acc) {
        prefix_[k].state = std::move(o.state);
        break;
      }
    }
    if (prefix_[k].state == nullptr) {
      prefix_[k].state =
          std::make_unique<OperatorState>(acc, StateIndex::kHash);
      prefix_[k].state->MarkIncomplete();
    }
  }
  if (policy_ == MigrationPolicy::kEager) {
    // Promote/Demote everything now (Moving State applied to eddies):
    // execution is halted until all prefix states are materialized.
    for (size_t k = 1; k < prefix_.size(); ++k) {
      if (!prefix_[k].state->complete()) MaterializePrefix(k, stamp);
    }
  } else {
    incomplete_since_ =
        incomplete_since_ == 0 ? stamp : std::min(incomplete_since_, stamp);
    boundary_seq_ = max_seq_seen_ + 1;
  }
  return Status::Ok();
}

}  // namespace jisc
