#include "mc/model.hpp"

#include <algorithm>
#include <sstream>

#include "meta/record.hpp"
#include "util/status.hpp"

namespace npss::mc {

namespace {

using meta::Msg;
using meta::MsgKind;

/// Canonical image of one in-flight message (fingerprint input — never
/// decoded). Most frames carry no record, snapshot or batch, so each of
/// those is one presence byte (or a zero count) unless it is set.
void encode_msg(util::ByteWriter& out, const Msg& m) {
  static const meta::ChangeRecord kNoRecord;
  out.u8(static_cast<std::uint8_t>(m.kind));
  out.svarint(m.from);
  out.uvarint(m.term);
  out.uvarint(m.index);
  out.uvarint(m.prev_term);
  out.uvarint(m.last_index);
  out.uvarint(m.last_term);
  out.uvarint(m.commit);
  out.uvarint(m.commit_term);
  out.u8(m.granted ? 1 : 0);
  const bool has_record = m.record != kNoRecord;
  out.u8(has_record ? 1 : 0);
  if (has_record) meta::fingerprint_record(out, m.record);
  const bool has_snapshot = m.snap_index != 0 || m.snap_term != 0 ||
                            !m.snap_digest.empty() || !m.snapshot.empty();
  out.u8(has_snapshot ? 1 : 0);
  if (has_snapshot) {
    out.uvarint(m.snap_index);
    out.uvarint(m.snap_term);
    out.vstr(m.snap_digest);
    out.vblob(m.snapshot);
  }
  out.uvarint(m.batch.size());
  for (const auto& [index, record] : m.batch) {
    out.uvarint(index);
    meta::fingerprint_record(out, record);
  }
}

std::string wire_name(const Msg& m) {
  std::ostringstream os;
  os << meta::msg_kind_name(m.kind);
  switch (m.kind) {
    case MsgKind::kAppend:
      os << " #" << m.index << " (term " << m.term << ")";
      break;
    case MsgKind::kAppendAck:
      os << " through #" << m.index;
      break;
    case MsgKind::kHeartbeat:
      os << " (term " << m.term << ", commit " << m.commit << ")";
      break;
    case MsgKind::kVoteReq:
    case MsgKind::kVoteAck:
      os << " (term " << m.term << (m.kind == MsgKind::kVoteAck
                                        ? (m.granted ? ", granted" : ", denied")
                                        : "")
         << ")";
      break;
    case MsgKind::kFetch:
      os << " from #" << m.index;
      break;
    case MsgKind::kFetchAck:
      os << " (snap #" << m.snap_index << " + " << m.batch.size()
         << " record(s))";
      break;
  }
  return os.str();
}

}  // namespace

World::World(Options opts) : opts_(opts) {
  nodes_.reserve(static_cast<std::size_t>(opts_.replicas));
  for (int i = 0; i < opts_.replicas; ++i) {
    Node node;
    node.core = meta::ReplicaCore(config_for(i));
    // The kMetaConfig bootstrap convention: replica 0 leads term 1.
    node.core.start(i == 0 ? meta::Role::kLeader : meta::Role::kFollower,
                    /*term=*/1, /*leader_index=*/0);
    nodes_.push_back(std::move(node));
  }
  links_.resize(static_cast<std::size_t>(opts_.replicas) *
                static_cast<std::size_t>(opts_.replicas));
  leaders_by_term_[1].insert(0);  // the bootstrap grant counts for MC001
  for (int i = 0; i < opts_.replicas; ++i) pump(i);
}

meta::CoreConfig World::config_for(int i) const {
  meta::CoreConfig config;
  config.index = i;
  config.replicas = opts_.replicas;
  config.seed = opts_.seed;
  config.snapshot_interval = opts_.snapshot_interval;
  config.quorum_commit = opts_.quorum_commit;
  return config;
}

void World::pump(int i) {
  Node& node = nodes_[static_cast<std::size_t>(i)];
  for (meta::Outbound& out : node.core.take_outbound()) {
    if (out.to < 0 || out.to >= opts_.replicas) continue;
    // A frame to a dead replica vanishes at the endpoint, exactly like
    // the simulator's NoRouteError path in the live driver.
    if (!nodes_[static_cast<std::size_t>(out.to)].up) continue;
    link(i, out.to).push_back(std::move(out.msg));
  }
  for (const meta::CoreEvent& ev : node.core.take_events()) {
    switch (ev.kind) {
      case meta::CoreEventKind::kBecameLeader:
        leaders_by_term_[ev.term].insert(i);
        break;
      case meta::CoreEventKind::kSteppedDown:
        // The live driver clears its completion map here: clients of
        // this deposed leader time out unacked, so their writes leave
        // the MC003 ledger.
        pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                      [i](const PendingOp& op) {
                                        return op.leader == i;
                                      }),
                       pending_.end());
        break;
      case meta::CoreEventKind::kCommitted:
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
          if (it->leader == i && it->index == ev.index) {
            acked_.push_back(AckedOp{it->token, it->index, ev.term});
            pending_.erase(it);
            break;
          }
        }
        break;
    }
  }
}

std::vector<Action> World::enabled() const {
  std::vector<Action> acts;
  for (int i = 0; i < opts_.replicas; ++i) {
    const Node& node = nodes_[static_cast<std::size_t>(i)];
    if (node.up) {
      if (ops_done_ < opts_.max_ops &&
          node.core.role() == meta::Role::kLeader) {
        acts.push_back(Action{ActionKind::kPropose, i, -1});
      }
      acts.push_back(Action{ActionKind::kTimer, i, -1});
      if (crashes_ < opts_.max_crashes) {
        acts.push_back(Action{ActionKind::kCrash, i, -1});
      }
    } else if (restarts_ < opts_.max_restarts) {
      acts.push_back(Action{ActionKind::kRestart, i, -1});
    }
  }
  for (int from = 0; from < opts_.replicas; ++from) {
    for (int to = 0; to < opts_.replicas; ++to) {
      if (link(from, to).empty()) continue;
      if (nodes_[static_cast<std::size_t>(to)].up) {
        acts.push_back(Action{ActionKind::kDeliver, from, to});
      }
      if (drops_ < opts_.max_drops) {
        acts.push_back(Action{ActionKind::kDrop, from, to});
      }
      if (dups_ < opts_.max_duplicates) {
        acts.push_back(Action{ActionKind::kDuplicate, from, to});
      }
    }
  }
  return acts;
}

bool World::is_enabled(const Action& action) const {
  const std::vector<Action> acts = enabled();
  return std::find(acts.begin(), acts.end(), action) != acts.end();
}

void World::step(const Action& action) {
  const auto idx = [](int i) { return static_cast<std::size_t>(i); };
  switch (action.kind) {
    case ActionKind::kPropose: {
      Node& node = nodes_[idx(action.a)];
      const std::uint64_t token = next_token_++;
      meta::ChangeRecord rec;
      rec.kind = meta::RecordKind::kLineCreate;
      rec.line = static_cast<std::int64_t>(token);
      rec.note = "op-" + std::to_string(token);
      const std::uint64_t term = node.core.term();
      const std::uint64_t index = node.core.propose(std::move(rec));
      if (index != 0) {
        pending_.push_back(PendingOp{token, index, term, action.a});
      }
      ++ops_done_;
      pump(action.a);
      break;
    }
    case ActionKind::kDeliver: {
      Msg m = std::move(link(action.a, action.b).front());
      link(action.a, action.b).pop_front();
      nodes_[idx(action.b)].core.handle(m);
      pump(action.b);
      break;
    }
    case ActionKind::kDrop:
      link(action.a, action.b).pop_front();
      ++drops_;
      break;
    case ActionKind::kDuplicate:
      link(action.a, action.b)
          .push_back(link(action.a, action.b).front());
      ++dups_;
      break;
    case ActionKind::kTimer:
      nodes_[idx(action.a)].core.fire_timer();
      pump(action.a);
      break;
    case ActionKind::kCrash: {
      nodes_[idx(action.a)].up = false;
      // Memory-only replica: its endpoint and queues die with it.
      for (int k = 0; k < opts_.replicas; ++k) {
        link(action.a, k).clear();
        link(k, action.a).clear();
      }
      pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                    [&](const PendingOp& op) {
                                      return op.leader == action.a;
                                    }),
                     pending_.end());
      ++crashes_;
      break;
    }
    case ActionKind::kRestart: {
      Node& node = nodes_[idx(action.a)];
      node.core = meta::ReplicaCore(config_for(action.a));
      node.core.start_recovered();
      node.up = true;
      ++restarts_;
      pump(action.a);
      break;
    }
  }
}

std::optional<Violation> World::check() const {
  // MC001 — election safety: at most one leader ever led each term.
  for (const auto& [term, leaders] : leaders_by_term_) {
    if (leaders.size() > 1) {
      std::ostringstream os;
      os << "term " << term << " was led by replicas";
      for (int r : leaders) os << " r" << r;
      return Violation{"MC001", os.str()};
    }
  }
  // MC002 — log consistency: committed prefixes are pairwise equal over
  // the retained overlap.
  for (int i = 0; i < opts_.replicas; ++i) {
    for (int j = i + 1; j < opts_.replicas; ++j) {
      const Node& a = nodes_[static_cast<std::size_t>(i)];
      const Node& b = nodes_[static_cast<std::size_t>(j)];
      if (!a.up || !b.up) continue;
      const std::uint64_t hi =
          std::min(a.core.commit_index(), b.core.commit_index());
      const std::uint64_t fa = a.core.log().first_index();
      const std::uint64_t fb = b.core.log().first_index();
      // first_index() == 0 means no retained records — nothing to compare
      // (the digest invariant MC004 still covers the compacted prefix).
      if (fa == 0 || fb == 0) continue;
      const std::uint64_t lo = std::max(fa, fb);
      for (std::uint64_t k = lo; k <= hi; ++k) {
        if (a.core.log().at(k) != b.core.log().at(k)) {
          std::ostringstream os;
          os << "replicas r" << i << " and r" << j
             << " both committed index " << k << " but hold different "
             << "records (terms " << a.core.log().term_at(k) << " vs "
             << b.core.log().term_at(k) << ")";
          return Violation{"MC002", os.str()};
        }
      }
    }
  }
  // MC003 — durability: every leader whose term is at or past an acked
  // write's term still holds that write (Leader Completeness).
  for (int i = 0; i < opts_.replicas; ++i) {
    const Node& node = nodes_[static_cast<std::size_t>(i)];
    if (!node.up || node.core.role() != meta::Role::kLeader) continue;
    for (const AckedOp& op : acked_) {
      if (node.core.term() < op.term) continue;
      std::string how;
      if (op.index <= node.core.commit_index()) {
        // Applied (possibly compacted away): the op's effect — line
        // `token` exists — must be visible in the state table.
        if (!node.core.state().lines().contains(
                static_cast<std::int64_t>(op.token))) {
          how = "its applied state has no line " + std::to_string(op.token);
        }
      } else if (op.index <= node.core.log().last_index()) {
        if (node.core.log().term_at(op.index) != op.term) {
          how = "its log holds a different term-" +
                std::to_string(node.core.log().term_at(op.index)) +
                " entry at that index";
        }
      } else {
        how = "its log ends at index " +
              std::to_string(node.core.log().last_index());
      }
      if (!how.empty()) {
        std::ostringstream os;
        os << "op-" << op.token << " was acknowledged at index " << op.index
           << " (term " << op.term << ") but leader r" << i << " of term "
           << node.core.term() << " lost it: " << how;
        return Violation{"MC003", os.str()};
      }
    }
  }
  // MC004 — convergence: equal applied index implies an equal table —
  // the fields digest() hashes, compared directly (no image, no hash).
  for (int i = 0; i < opts_.replicas; ++i) {
    for (int j = i + 1; j < opts_.replicas; ++j) {
      const Node& a = nodes_[static_cast<std::size_t>(i)];
      const Node& b = nodes_[static_cast<std::size_t>(j)];
      if (!a.up || !b.up) continue;
      if (a.core.state().last_applied() != b.core.state().last_applied()) {
        continue;
      }
      if (a.core.state().last_applied() == 0) continue;
      if (!a.core.state().same_table(b.core.state())) {
        std::ostringstream os;
        os << "replicas r" << i << " and r" << j << " both applied through "
           << "index " << a.core.state().last_applied()
           << " but their state digests differ";
        return Violation{"MC004", os.str()};
      }
    }
  }
  return std::nullopt;
}

std::optional<Violation> World::check_leaf() const {
  // MC005 — replay idempotence: rebuilding from the replica's own
  // snapshot + retained log, applied twice, reproduces its live state.
  for (int i = 0; i < opts_.replicas; ++i) {
    const Node& node = nodes_[static_cast<std::size_t>(i)];
    if (!node.up) continue;
    meta::ReplicatedState rebuilt;
    try {
      if (!node.core.snapshots().empty()) {
        rebuilt = meta::ReplicatedState::deserialize(
            node.core.snapshots().latest().image);
      }
      const auto tail =
          node.core.log().tail(node.core.log().first_index());
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& [index, record] : tail) {
          if (index > node.core.commit_index()) break;
          rebuilt.apply(record, index);
        }
      }
    } catch (const util::Error& e) {
      return Violation{"MC005", "replica r" + std::to_string(i) +
                                    " cannot replay its own log: " + e.what()};
    }
    if (!rebuilt.same_table(node.core.state())) {
      std::ostringstream os;
      os << "replica r" << i << ": snapshot + log replayed twice gives "
         << "digest " << rebuilt.digest().substr(0, 12) << "…, live state is "
         << node.core.state().digest().substr(0, 12) << "…";
      return Violation{"MC005", os.str()};
    }
  }
  return std::nullopt;
}

util::Bytes World::fingerprint() const {
  util::ByteWriter out;
  out.reserve(512);  // images run ~80-250 B at the gate bounds: one allocation
  out.u8(static_cast<std::uint8_t>(opts_.replicas));
  out.u8(opts_.quorum_commit ? 1 : 0);
  out.uvarint(static_cast<std::uint64_t>(ops_done_));
  out.uvarint(static_cast<std::uint64_t>(crashes_));
  out.uvarint(static_cast<std::uint64_t>(restarts_));
  out.uvarint(static_cast<std::uint64_t>(drops_));
  out.uvarint(static_cast<std::uint64_t>(dups_));
  for (const Node& node : nodes_) {
    out.u8(node.up ? 1 : 0);
    // A dead replica's memory is gone: two worlds that differ only in
    // what a crashed core last held are the same state. The core image
    // is self-delimiting, so it needs no length prefix of its own.
    if (node.up) node.core.fingerprint(out);
  }
  for (const auto& queue : links_) {
    out.uvarint(queue.size());
    for (const Msg& m : queue) encode_msg(out, m);
  }
  out.uvarint(pending_.size());
  for (const PendingOp& op : pending_) {
    out.uvarint(op.token);
    out.uvarint(op.index);
    out.uvarint(op.term);
    out.svarint(op.leader);
  }
  out.uvarint(acked_.size());
  for (const AckedOp& op : acked_) {
    out.uvarint(op.token);
    out.uvarint(op.index);
    out.uvarint(op.term);
  }
  out.uvarint(leaders_by_term_.size());
  for (const auto& [term, leaders] : leaders_by_term_) {
    out.uvarint(term);
    out.uvarint(leaders.size());
    for (int r : leaders) out.svarint(r);
  }
  return std::move(out).take();
}

std::string World::describe(const Action& action) const {
  std::ostringstream os;
  switch (action.kind) {
    case ActionKind::kPropose:
      os << "propose op-" << next_token_ << " on leader r" << action.a;
      break;
    case ActionKind::kDeliver:
      os << "deliver r" << action.a << "→r" << action.b << " "
         << wire_name(link(action.a, action.b).front());
      break;
    case ActionKind::kDrop:
      os << "drop r" << action.a << "→r" << action.b << " "
         << wire_name(link(action.a, action.b).front());
      break;
    case ActionKind::kDuplicate:
      os << "duplicate r" << action.a << "→r" << action.b << " "
         << wire_name(link(action.a, action.b).front());
      break;
    case ActionKind::kTimer: {
      const auto& core = nodes_[static_cast<std::size_t>(action.a)].core;
      os << "timer fires on r" << action.a << " ("
         << meta::role_name(core.role()) << ", term " << core.term() << ")";
      break;
    }
    case ActionKind::kCrash:
      os << "crash r" << action.a;
      break;
    case ActionKind::kRestart:
      os << "restart r" << action.a << " (rejoins as learner)";
      break;
  }
  return os.str();
}

std::string World::summary() const {
  std::ostringstream os;
  for (int i = 0; i < opts_.replicas; ++i) {
    const Node& node = nodes_[static_cast<std::size_t>(i)];
    os << "  r" << i << ": ";
    if (!node.up) {
      os << "down\n";
      continue;
    }
    const auto& core = node.core;
    os << meta::role_name(core.role()) << (core.learner() ? " (learner)" : "")
       << ", term " << core.term() << ", log 1.." << core.log().last_index()
       << ", commit " << core.commit_index() << ", digest "
       << core.state().digest().substr(0, 12) << "…\n";
  }
  if (!acked_.empty()) {
    os << "  acked:";
    for (const AckedOp& op : acked_) {
      os << " op-" << op.token << "@#" << op.index << "(t" << op.term << ")";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace npss::mc
