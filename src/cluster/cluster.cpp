#include "cluster/cluster.hpp"

#include <algorithm>
#include <utility>

#include "snapshot/snapshot.hpp"
#include "util/error.hpp"

namespace dmsim::cluster {

namespace {
/// Raw column value of an idle node's running_job_ entry.
constexpr std::uint32_t kIdle = NodeId::kInvalid;
}  // namespace

MemoryTier default_memory_tier() {
  return MemoryTier{"pool", kTierReferenceLatencyNs, kTierReferenceBandwidthGbs,
                    TierScope::Rack};
}

ClusterConfig make_cluster_config(int normal_count, MiB normal_mib,
                                  int large_count, MiB large_mib, int cores) {
  DMSIM_ASSERT(normal_count >= 0 && large_count >= 0,
               "node counts must be non-negative");
  DMSIM_ASSERT(normal_count + large_count > 0, "cluster must have nodes");
  ClusterConfig cfg;
  cfg.nodes.reserve(static_cast<std::size_t>(normal_count + large_count));
  for (int i = 0; i < normal_count; ++i) {
    cfg.nodes.push_back(NodeConfig{cores, normal_mib, false});
  }
  for (int i = 0; i < large_count; ++i) {
    cfg.nodes.push_back(NodeConfig{cores, large_mib, true});
  }
  return cfg;
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  DMSIM_ASSERT(!config_.nodes.empty(), "cluster must have at least one node");
  const std::size_t n = config_.nodes.size();
  // Normalize the tier table first: an empty table is the paper's flat
  // single-pool model, one implicit tier at the reference point.
  tiers_ = config_.tiers;
  if (tiers_.empty()) tiers_.push_back(default_memory_tier());
  DMSIM_ASSERT(tiers_.size() <= 255, "at most 255 memory tiers");
  tier_latency_factor_.reserve(tiers_.size());
  tier_bandwidth_factor_.reserve(tiers_.size());
  for (const MemoryTier& t : tiers_) {
    DMSIM_ASSERT(t.latency_ns > 0.0, "tier latency must be positive");
    DMSIM_ASSERT(t.bandwidth_gbs > 0.0, "tier bandwidth must be positive");
    tier_latency_factor_.push_back(t.latency_ns / kTierReferenceLatencyNs);
    tier_bandwidth_factor_.push_back(kTierReferenceBandwidthGbs /
                                     t.bandwidth_gbs);
  }
  tier_order_.resize(tiers_.size());
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    tier_order_[t] = static_cast<std::uint8_t>(t);
  }
  std::sort(tier_order_.begin(), tier_order_.end(),
            [this](std::uint8_t a, std::uint8_t b) {
              if (tiers_[a].latency_ns != tiers_[b].latency_ns) {
                return tiers_[a].latency_ns < tiers_[b].latency_ns;
              }
              return a < b;
            });
  // Every column and index container is sized up front: the node count is
  // immutable, so nothing on the ledger's hot paths ever reallocates.
  capacity_.reserve(n);
  cores_.reserve(n);
  large_.reserve(n);
  tier_.reserve(n);
  rack_.reserve(n);
  for (const auto& nc : config_.nodes) {
    DMSIM_ASSERT(nc.capacity > 0, "node capacity must be positive");
    DMSIM_ASSERT(nc.cores > 0, "node cores must be positive");
    DMSIM_ASSERT(nc.tier < tiers_.size(), "node tier out of range");
    capacity_.push_back(nc.capacity);
    cores_.push_back(nc.cores);
    large_.push_back(nc.large ? 1 : 0);
    tier_.push_back(nc.tier);
    rack_.push_back(nc.rack);
    total_capacity_ += nc.capacity;
  }
  if (tiered()) {
    tier_free_index_.resize(tiers_.size());
    tier_mem_free_index_.resize(tiers_.size());
    tier_free_mib_.assign(tiers_.size(), 0);
    tier_lent_mib_.assign(tiers_.size(), 0);
  }
  running_job_.assign(n, kIdle);
  local_used_.assign(n, 0);
  lent_.assign(n, 0);
  lender_dirty_flag_.assign(n, 0);
  borrow_slab_.init(n);
  // Exclusive node allocation bounds live slots by the node count.
  slots_.reserve(n);
  job_hosts_.reserve(n);
  rebuild_indexes_bulk();
  nodes_by_capacity_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) nodes_by_capacity_.push_back(NodeId{i});
  std::sort(nodes_by_capacity_.begin(), nodes_by_capacity_.end(),
            [this](NodeId a, NodeId b) {
              const MiB ca = capacity_[a.get()];
              const MiB cb = capacity_[b.get()];
              if (ca != cb) return ca < cb;
              return a < b;
            });
  capacities_sorted_.reserve(n);
  for (NodeId id : nodes_by_capacity_) {
    capacities_sorted_.push_back(capacity_[id.get()]);
  }
}

void Cluster::add_nodes(std::span<const NodeConfig> new_nodes) {
  if (new_nodes.empty()) return;
  const std::size_t n = capacity_.size() + new_nodes.size();
  DMSIM_ASSERT(n <= NodeId::kInvalid, "node count overflows NodeId");
  for (const NodeConfig& nc : new_nodes) {
    DMSIM_ASSERT(nc.capacity > 0, "node capacity must be positive");
    DMSIM_ASSERT(nc.cores > 0, "node cores must be positive");
    DMSIM_ASSERT(nc.tier < tiers_.size(), "node tier out of range");
    config_.nodes.push_back(nc);
    capacity_.push_back(nc.capacity);
    cores_.push_back(nc.cores);
    large_.push_back(nc.large ? 1 : 0);
    tier_.push_back(nc.tier);
    rack_.push_back(nc.rack);
    running_job_.push_back(kIdle);
    local_used_.push_back(0);
    lent_.push_back(0);
    lender_dirty_flag_.push_back(0);
    total_capacity_ += nc.capacity;
  }
  borrow_slab_.grow(n);
  // The bulk pass resizes free_/mem_node_/index_bits_ and re-derives every
  // ordered index and per-tier total from the columns.
  rebuild_indexes_bulk();
  nodes_by_capacity_.clear();
  nodes_by_capacity_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) nodes_by_capacity_.push_back(NodeId{i});
  std::sort(nodes_by_capacity_.begin(), nodes_by_capacity_.end(),
            [this](NodeId a, NodeId b) {
              const MiB ca = capacity_[a.get()];
              const MiB cb = capacity_[b.get()];
              if (ca != cb) return ca < cb;
              return a < b;
            });
  capacities_sorted_.clear();
  capacities_sorted_.reserve(n);
  for (NodeId id : nodes_by_capacity_) {
    capacities_sorted_.push_back(capacity_[id.get()]);
  }
  ++change_epoch_;
}

void Cluster::set_observer(const obs::Observer* observer) {
  obs_ = observer;
  c_lend_ops_ = obs::counter_handle(observer, "ledger.lend_ops");
  c_lent_mib_ = obs::counter_handle(observer, "ledger.lent_mib_total");
  c_reclaim_ops_ = obs::counter_handle(observer, "ledger.reclaim_ops");
  c_reclaimed_mib_ = obs::counter_handle(observer, "ledger.reclaimed_mib_total");
  c_local_grow_mib_ = obs::counter_handle(observer, "ledger.local_grow_mib_total");
  c_local_shrink_mib_ =
      obs::counter_handle(observer, "ledger.local_shrink_mib_total");
  g_lent_ = obs::gauge_handle(observer, "ledger.lent_mib");
  g_allocated_ = obs::gauge_handle(observer, "ledger.allocated_mib");
  s_lend_mib_ = obs::series_handle(observer, "ledger.lend_mib");
  s_reclaim_mib_ = obs::series_handle(observer, "ledger.reclaim_mib");
  s_edge_churn_ = obs::series_handle(observer, "ledger.edge_churn");
  h_lenders_per_grow_ = obs::histogram_handle(observer, "ledger.lenders_per_grow");
  // Per-tier occupancy gauges exist only on tiered topologies, keeping the
  // flat model's exported instrument set (and its goldens) unchanged.
  g_tier_lent_.clear();
  if (tiered()) {
    g_tier_lent_.reserve(tiers_.size());
    for (std::size_t t = 0; t < tiers_.size(); ++t) {
      g_tier_lent_.push_back(obs::gauge_handle(
          observer, "ledger.tier_occupancy." + std::to_string(t)));
    }
  }
}

void Cluster::publish_tier_gauges() {
  for (std::size_t t = 0; t < g_tier_lent_.size(); ++t) {
    if (g_tier_lent_[t]) g_tier_lent_[t]->set(tier_lent_mib_[t]);
  }
}

std::uint32_t Cluster::checked(NodeId id) const {
  DMSIM_ASSERT(id.valid() && id.get() < capacity_.size(),
               "node id out of range");
  return id.get();
}

Node Cluster::node(NodeId id) const {
  const std::uint32_t i = checked(id);
  Node n;
  n.id = id;
  n.cores = cores_[i];
  n.capacity = capacity_[i];
  n.large = large_[i] != 0;
  n.running_job = JobId{running_job_[i]};
  n.local_used = local_used_[i];
  n.lent = lent_[i];
  return n;
}

std::vector<Node> Cluster::materialize_nodes() const {
  std::vector<Node> out;
  out.reserve(node_count());
  for (std::uint32_t i = 0; i < node_count(); ++i) {
    out.push_back(node(NodeId{i}));
  }
  return out;
}

std::span<const NodeId> Cluster::nodes_by_capacity_at_least(
    MiB capacity) const noexcept {
  const auto it = std::lower_bound(capacities_sorted_.begin(),
                                   capacities_sorted_.end(), capacity);
  const auto offset =
      static_cast<std::size_t>(it - capacities_sorted_.begin());
  return std::span<const NodeId>(nodes_by_capacity_).subspan(offset);
}

// ---------------------------------------------------------------------------
// Index maintenance
// ---------------------------------------------------------------------------

void Cluster::reindex_node(std::uint32_t i) {
  // The old index key is the free_ column entry (what the node was last
  // indexed under); the new one is re-derived from the occupancy columns.
  const MiB old_free = free_[i];
  const std::uint8_t old_bits = index_bits_[i];
  const MiB free = capacity_[i] - local_used_[i] - lent_[i];
  const bool mem = lent_[i] * 2 > capacity_[i];
  const bool host = running_job_[i] == kIdle && !mem;
  const bool lendable = free > 0;
  const bool mem_free = mem && lendable;
  const FreeKey old_key{old_free, i};
  const FreeKey new_key{free, i};
  const bool moved = old_free != free;
  if ((old_bits & kInHost) && (!host || moved)) host_index_.erase(old_key);
  if (host && (!(old_bits & kInHost) || moved)) host_index_.insert(new_key);
  if ((old_bits & kInFree) && (!lendable || moved)) free_index_.erase(old_key);
  if (lendable && (!(old_bits & kInFree) || moved)) free_index_.insert(new_key);
  if ((old_bits & kInMemFree) && (!mem_free || moved)) {
    mem_free_index_.erase(old_key);
  }
  if (mem_free && (!(old_bits & kInMemFree) || moved)) {
    mem_free_index_.insert(new_key);
  }
  if (tiered()) {
    // The per-tier variants share the membership bits (tier is immutable),
    // so the same erase/insert conditions apply to the node's tier indexes.
    const std::uint8_t t = tier_[i];
    FreeIndex& tf = tier_free_index_[t];
    FreeIndex& tmf = tier_mem_free_index_[t];
    if ((old_bits & kInFree) && (!lendable || moved)) tf.erase(old_key);
    if (lendable && (!(old_bits & kInFree) || moved)) tf.insert(new_key);
    if ((old_bits & kInMemFree) && (!mem_free || moved)) tmf.erase(old_key);
    if (mem_free && (!(old_bits & kInMemFree) || moved)) tmf.insert(new_key);
    tier_free_mib_[t] += free - old_free;
  }
  free_[i] = free;
  mem_node_[i] = mem ? 1 : 0;
  index_bits_[i] = static_cast<std::uint8_t>((host ? kInHost : 0) |
                                             (lendable ? kInFree : 0) |
                                             (mem_free ? kInMemFree : 0));
}

void Cluster::rebuild_indexes_bulk() {
  const std::size_t n = capacity_.size();
  free_.resize(n);
  mem_node_.resize(n);
  index_bits_.resize(n);
  // One linear pass derives every column and gathers each index's keys into
  // a flat vector; sorting those and range-constructing the sets builds each
  // tree with O(size) comparisons (sorted-range guarantee) instead of n
  // individual O(log n) inserts.
  std::vector<FreeKey> host_keys;
  std::vector<FreeKey> free_keys;
  std::vector<FreeKey> mem_keys;
  host_keys.reserve(n);
  free_keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const MiB free = capacity_[i] - local_used_[i] - lent_[i];
    const bool mem = lent_[i] * 2 > capacity_[i];
    const bool host = running_job_[i] == kIdle && !mem;
    const bool lendable = free > 0;
    const bool mem_free = mem && lendable;
    free_[i] = free;
    mem_node_[i] = mem ? 1 : 0;
    index_bits_[i] = static_cast<std::uint8_t>((host ? kInHost : 0) |
                                               (lendable ? kInFree : 0) |
                                               (mem_free ? kInMemFree : 0));
    if (host) host_keys.emplace_back(free, i);
    if (lendable) free_keys.emplace_back(free, i);
    if (mem_free) mem_keys.emplace_back(free, i);
  }
  std::sort(host_keys.begin(), host_keys.end());
  std::sort(free_keys.begin(), free_keys.end());
  std::sort(mem_keys.begin(), mem_keys.end());
  host_index_ = FreeIndex(host_keys.begin(), host_keys.end());
  free_index_ = FreeIndex(free_keys.begin(), free_keys.end());
  mem_free_index_ = FreeIndex(mem_keys.begin(), mem_keys.end());
  if (tiered()) {
    // Bucket the already-sorted global keys per tier (filtering preserves
    // order, so each per-tier set also range-constructs linearly), and
    // re-derive the per-tier free/lent totals from the columns.
    const std::size_t tc = tiers_.size();
    std::vector<std::vector<FreeKey>> tf(tc);
    std::vector<std::vector<FreeKey>> tmf(tc);
    for (const FreeKey& k : free_keys) tf[tier_[k.second]].push_back(k);
    for (const FreeKey& k : mem_keys) tmf[tier_[k.second]].push_back(k);
    tier_free_mib_.assign(tc, 0);
    tier_lent_mib_.assign(tc, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      tier_free_mib_[tier_[i]] += free_[i];
      tier_lent_mib_[tier_[i]] += lent_[i];
    }
    for (std::size_t t = 0; t < tc; ++t) {
      tier_free_index_[t] = FreeIndex(tf[t].begin(), tf[t].end());
      tier_mem_free_index_[t] = FreeIndex(tmf[t].begin(), tmf[t].end());
    }
  }
}

void Cluster::mark_lender_dirty(NodeId id) {
  std::uint8_t& flag = lender_dirty_flag_[id.get()];
  if (flag == 0) {
    flag = 1;
    dirty_lenders_.push_back(id);
  }
}

void Cluster::mark_slot_dirty(const AllocationSlot& slot) {
  mark_job_dirty(slot.job);
  for (const auto& [lender, amount] : slot.remote) {
    (void)amount;
    mark_lender_dirty(lender);
  }
}

void Cluster::clear_contention_dirty() {
  for (const NodeId id : dirty_lenders_) lender_dirty_flag_[id.get()] = 0;
  dirty_lenders_.clear();
  dirty_jobs_.clear();
}

// ---------------------------------------------------------------------------
// Job placement
// ---------------------------------------------------------------------------

void Cluster::assign_job(JobId job, std::span<const NodeId> hosts) {
  DMSIM_ASSERT(job.valid(), "cannot assign an invalid job");
  DMSIM_ASSERT(!hosts.empty(), "job needs at least one host");
  DMSIM_ASSERT(!job_hosts_.contains(job.get()), "job already assigned");
  for (NodeId h : hosts) {
    DMSIM_ASSERT(can_host(h), "host is busy or a memory node");
  }
  std::vector<NodeId> host_list(hosts.begin(), hosts.end());
  for (NodeId h : host_list) {
    running_job_[h.get()] = job.get();
    reindex_node(h.get());
    AllocationSlot slot;
    slot.job = job;
    slot.host = h;
    const auto [it, inserted] = slots_.emplace(key(job, h), std::move(slot));
    DMSIM_ASSERT(inserted, "duplicate host in job assignment");
    (void)it;
  }
  job_hosts_.emplace(job.get(), std::move(host_list));
  ++change_epoch_;
}

void Cluster::finish_job(JobId job) {
  const auto hit = job_hosts_.find(job.get());
  DMSIM_ASSERT(hit != job_hosts_.end(), "finishing a job that is not assigned");
  for (NodeId h : hit->second) {
    const auto sit = slots_.find(key(job, h));
    DMSIM_ASSERT(sit != slots_.end(), "missing slot for assigned host");
    AllocationSlot& slot = sit->second;
    // Return all borrows.
    for (const auto& [lender, amount] : slot.remote) {
      const std::uint32_t l = lender.get();
      DMSIM_ASSERT(lent_[l] >= amount, "lender under-ledgered");
      lent_[l] -= amount;
      total_allocated_ -= amount;
      total_lent_ -= amount;
      if (tiered()) tier_lent_mib_[tier_[l]] -= amount;
      reindex_node(l);
      mark_lender_dirty(lender);
      const bool removed = borrow_slab_.remove(l, sit->first.packed);
      DMSIM_ASSERT(removed, "borrow edge missing from reverse slab");
    }
    // Release local share and the host itself.
    const std::uint32_t hi = h.get();
    DMSIM_ASSERT(local_used_[hi] >= slot.local, "host under-ledgered");
    local_used_[hi] -= slot.local;
    total_allocated_ -= slot.local;
    DMSIM_ASSERT(running_job_[hi] == job.get(), "host running a different job");
    running_job_[hi] = kIdle;
    reindex_node(hi);
    slots_.erase(sit);
  }
  job_hosts_.erase(hit);
  ++change_epoch_;
  // The scheduler emits the job's terminal event; here only the aggregate
  // gauges move (all of the job's local + borrowed memory was returned).
  if (g_lent_) g_lent_->set(total_lent_);
  if (g_allocated_) g_allocated_->set(total_allocated_);
  publish_tier_gauges();
}

// ---------------------------------------------------------------------------
// Memory operations
// ---------------------------------------------------------------------------

MiB Cluster::grow_local(JobId job, NodeId host, MiB amount) {
  DMSIM_ASSERT(amount >= 0, "grow_local amount must be non-negative");
  AllocationSlot& slot = slot_mut(job, host);
  const std::uint32_t h = host.get();
  const MiB granted = std::min(amount, free_[h]);
  slot.local += granted;
  local_used_[h] += granted;
  total_allocated_ += granted;
  if (granted > 0) {
    reindex_node(h);
    ++change_epoch_;
    // Remote-borrowing slots see their amount/total pressure ratios shift.
    if (!slot.remote.empty()) mark_slot_dirty(slot);
    obs::bump(c_local_grow_mib_, static_cast<std::uint64_t>(granted));
    if (g_allocated_) g_allocated_->set(total_allocated_);
    if (obs::tracing(obs_)) {
      obs_->sink->emit(obs::Event{obs::EventKind::SlotGrow, obs_->now(),
                                  job.get(), host.get()}
                           .with("mib", granted));
    }
  }
  return granted;
}

MiB Cluster::shrink_local(JobId job, NodeId host, MiB amount) {
  DMSIM_ASSERT(amount >= 0, "shrink_local amount must be non-negative");
  AllocationSlot& slot = slot_mut(job, host);
  const std::uint32_t h = host.get();
  const MiB released = std::min(amount, slot.local);
  slot.local -= released;
  local_used_[h] -= released;
  total_allocated_ -= released;
  if (released > 0) {
    reindex_node(h);
    ++change_epoch_;
    if (!slot.remote.empty()) mark_slot_dirty(slot);
    obs::bump(c_local_shrink_mib_, static_cast<std::uint64_t>(released));
    if (g_allocated_) g_allocated_->set(total_allocated_);
    if (obs::tracing(obs_)) {
      obs_->sink->emit(obs::Event{obs::EventKind::SlotShrink, obs_->now(),
                                  job.get(), host.get()}
                           .with("mib", released));
    }
  }
  return released;
}

NodeId Cluster::next_lender(NodeId exclude) const {
  if (tiered()) {
    // Nearest tier with free capacity first, spilling outward: each leg is
    // one O(log n) probe of that tier's index pair.
    for (const std::uint8_t t : tier_order_) {
      const NodeId pick = next_lender_in_tier(t, exclude);
      if (pick.valid()) return pick;
    }
    return NodeId{};
  }
  // First admissible key in visit_desc order — the same (free desc, id asc)
  // walk the materialized ordering used, stopped at the first hit.
  const auto first_desc = [exclude](const FreeIndex& index,
                                    auto&& admit) -> NodeId {
    NodeId found{};
    visit_desc(index, index.end(), [&](const FreeKey& k) {
      if (k.second == exclude.get() || !admit(k)) return true;
      found = NodeId{k.second};
      return false;
    });
    return found;
  };
  const auto any = [](const FreeKey&) { return true; };
  switch (config_.lender_policy) {
    case LenderPolicy::MostFree:
      return first_desc(free_index_, any);
    case LenderPolicy::LeastFree:
      for (const FreeKey& k : free_index_) {
        if (k.second != exclude.get()) return NodeId{k.second};
      }
      return NodeId{};
    case LenderPolicy::MemoryNodesFirst: {
      // Memory nodes (free desc, id asc) before the rest in the same order —
      // the old sort's partition under its memory-nodes-first comparator.
      const NodeId mem = first_desc(mem_free_index_, any);
      if (mem.valid()) return mem;
      return first_desc(free_index_, [this](const FreeKey& k) {
        return mem_node_[k.second] == 0;
      });
    }
  }
  return NodeId{};
}

NodeId Cluster::next_lender_in_tier(std::uint8_t t, NodeId exclude) const {
  // The configured policy's ranking, restricted to one tier's index pair.
  const FreeIndex& tier_free = tier_free_index_[t];
  const auto first_desc = [exclude](const FreeIndex& index,
                                    auto&& admit) -> NodeId {
    NodeId found{};
    visit_desc(index, index.end(), [&](const FreeKey& k) {
      if (k.second == exclude.get() || !admit(k)) return true;
      found = NodeId{k.second};
      return false;
    });
    return found;
  };
  const auto any = [](const FreeKey&) { return true; };
  switch (config_.lender_policy) {
    case LenderPolicy::MostFree:
      return first_desc(tier_free, any);
    case LenderPolicy::LeastFree:
      for (const FreeKey& k : tier_free) {
        if (k.second != exclude.get()) return NodeId{k.second};
      }
      return NodeId{};
    case LenderPolicy::MemoryNodesFirst: {
      const NodeId mem = first_desc(tier_mem_free_index_[t], any);
      if (mem.valid()) return mem;
      return first_desc(tier_free, [this](const FreeKey& k) {
        return mem_node_[k.second] == 0;
      });
    }
  }
  return NodeId{};
}

MiB Cluster::grow_remote(JobId job, NodeId host, MiB amount) {
  DMSIM_ASSERT(amount >= 0, "grow_remote amount must be non-negative");
  if (amount == 0) return 0;
  AllocationSlot& slot = slot_mut(job, host);
  MiB remaining = amount;
  int lenders_touched = 0;
  std::int64_t edges_added = 0;
  // Lenders are picked one at a time straight from the indexes. Each pick is
  // either drained to free() == 0 — leaving every index before the next
  // lookup — or the grow is satisfied and the loop ends, so the sequence of
  // picks is identical to ranking all lenders by their state at the start of
  // the grow (the historical snapshot semantics), including memory-node
  // status flips: a flipped node has free() == 0 and is out of both indexes.
  while (remaining > 0) {
    const NodeId lender = next_lender(host);
    if (!lender.valid()) break;
    const std::uint32_t l = lender.get();
    const MiB take = std::min(remaining, free_[l]);
    DMSIM_ASSERT(take > 0, "free-index lender must have free memory");
    lent_[l] += take;
    total_allocated_ += take;
    total_lent_ += take;
    if (tiered()) tier_lent_mib_[tier_[l]] += take;
    remaining -= take;
    ++lenders_touched;
    reindex_node(l);
    // Merge into an existing edge if present.
    auto edge = std::find_if(slot.remote.begin(), slot.remote.end(),
                             [lender](const auto& e) { return e.first == lender; });
    if (edge != slot.remote.end()) {
      edge->second += take;
    } else {
      slot.remote.emplace_back(lender, take);
      borrow_slab_.add(l, key(job, host).packed);
      ++edges_added;
    }
  }
  const MiB granted = amount - remaining;
  if (granted > 0) {
    ++change_epoch_;
    // The slot's total moved too, so every edge's pressure ratio changed.
    mark_slot_dirty(slot);
    obs::bump(c_lend_ops_);
    obs::bump(c_lent_mib_, static_cast<std::uint64_t>(granted));
    obs::record(h_lenders_per_grow_, lenders_touched);
    if (obs_ != nullptr) {
      const Seconds now = obs_->now();
      obs::record(s_lend_mib_, now, granted);
      if (edges_added > 0) obs::record(s_edge_churn_, now, edges_added);
    }
    if (g_lent_) g_lent_->set(total_lent_);
    if (g_allocated_) g_allocated_->set(total_allocated_);
    publish_tier_gauges();
    if (obs::tracing(obs_)) {
      obs_->sink->emit(obs::Event{obs::EventKind::MemLend, obs_->now(),
                                  job.get(), host.get()}
                           .with("mib", granted)
                           .with("lent_total", total_lent_));
    }
  }
  return granted;
}

MiB Cluster::shrink_remote(JobId job, NodeId host, MiB amount) {
  DMSIM_ASSERT(amount >= 0, "shrink_remote amount must be non-negative");
  AllocationSlot& slot = slot_mut(job, host);
  MiB remaining = std::min(amount, slot.remote_total());
  const MiB released = remaining;
  std::int64_t edges_removed = 0;
  // Return the largest borrows first: frees memory-node status soonest.
  std::sort(slot.remote.begin(), slot.remote.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  for (auto& [lender, borrowed] : slot.remote) {
    if (remaining == 0) break;
    const MiB give = std::min(remaining, borrowed);
    const std::uint32_t l = lender.get();
    DMSIM_ASSERT(lent_[l] >= give, "lender under-ledgered on shrink");
    lent_[l] -= give;
    total_allocated_ -= give;
    total_lent_ -= give;
    if (tiered()) tier_lent_mib_[tier_[l]] -= give;
    borrowed -= give;
    remaining -= give;
    reindex_node(l);
    // Mark here, not via mark_slot_dirty below: a fully-returned edge is
    // erased from the slot before that call, yet its lender's pressure
    // still changed.
    mark_lender_dirty(lender);
    if (borrowed == 0) {
      const bool removed = borrow_slab_.remove(l, key(job, host).packed);
      DMSIM_ASSERT(removed, "borrow edge missing from reverse slab");
      ++edges_removed;
    }
  }
  std::erase_if(slot.remote, [](const auto& e) { return e.second == 0; });
  if (released > 0) {
    ++change_epoch_;
    mark_slot_dirty(slot);
    obs::bump(c_reclaim_ops_);
    obs::bump(c_reclaimed_mib_, static_cast<std::uint64_t>(released));
    if (obs_ != nullptr) {
      const Seconds now = obs_->now();
      obs::record(s_reclaim_mib_, now, released);
      if (edges_removed > 0) obs::record(s_edge_churn_, now, edges_removed);
    }
    if (g_lent_) g_lent_->set(total_lent_);
    if (g_allocated_) g_allocated_->set(total_allocated_);
    publish_tier_gauges();
    if (obs::tracing(obs_)) {
      obs_->sink->emit(obs::Event{obs::EventKind::MemReclaim, obs_->now(),
                                  job.get(), host.get()}
                           .with("mib", released)
                           .with("lent_total", total_lent_));
    }
  }
  return released;
}

MiB Cluster::shrink_remote_edge(JobId job, NodeId host, NodeId lender,
                                MiB amount) {
  DMSIM_ASSERT(amount >= 0, "shrink_remote_edge amount must be non-negative");
  AllocationSlot& slot = slot_mut(job, host);
  const auto edge =
      std::find_if(slot.remote.begin(), slot.remote.end(),
                   [lender](const auto& e) { return e.first == lender; });
  if (edge == slot.remote.end() || amount == 0) return 0;
  const MiB give = std::min(amount, edge->second);
  const std::uint32_t l = lender.get();
  DMSIM_ASSERT(lent_[l] >= give, "lender under-ledgered on edge shrink");
  lent_[l] -= give;
  total_allocated_ -= give;
  total_lent_ -= give;
  if (tiered()) tier_lent_mib_[tier_[l]] -= give;
  edge->second -= give;
  reindex_node(l);
  mark_lender_dirty(lender);
  std::int64_t edges_removed = 0;
  if (edge->second == 0) {
    const bool removed = borrow_slab_.remove(l, key(job, host).packed);
    DMSIM_ASSERT(removed, "borrow edge missing from reverse slab");
    slot.remote.erase(edge);
    edges_removed = 1;
  }
  ++change_epoch_;
  mark_slot_dirty(slot);
  obs::bump(c_reclaim_ops_);
  obs::bump(c_reclaimed_mib_, static_cast<std::uint64_t>(give));
  if (obs_ != nullptr) {
    const Seconds now = obs_->now();
    obs::record(s_reclaim_mib_, now, give);
    if (edges_removed > 0) obs::record(s_edge_churn_, now, edges_removed);
  }
  if (g_lent_) g_lent_->set(total_lent_);
  if (g_allocated_) g_allocated_->set(total_allocated_);
  publish_tier_gauges();
  if (obs::tracing(obs_)) {
    obs_->sink->emit(obs::Event{obs::EventKind::MemReclaim, obs_->now(),
                                job.get(), host.get()}
                         .with("mib", give)
                         .with("lent_total", total_lent_));
  }
  return give;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

const AllocationSlot& Cluster::slot(JobId job, NodeId host) const {
  const auto it = slots_.find(key(job, host));
  DMSIM_ASSERT(it != slots_.end(), "no allocation slot for (job, host)");
  return it->second;
}

bool Cluster::has_slot(JobId job, NodeId host) const {
  return slots_.contains(key(job, host));
}

AllocationSlot& Cluster::slot_mut(JobId job, NodeId host) {
  const auto it = slots_.find(key(job, host));
  DMSIM_ASSERT(it != slots_.end(), "no allocation slot for (job, host)");
  return it->second;
}

std::span<const NodeId> Cluster::hosts_of(JobId job) const {
  const auto hit = job_hosts_.find(job.get());
  if (hit == job_hosts_.end()) return {};
  return hit->second;
}

std::vector<const AllocationSlot*> Cluster::job_slots(JobId job) const {
  std::vector<const AllocationSlot*> out;
  const auto hit = job_hosts_.find(job.get());
  if (hit == job_hosts_.end()) return out;
  out.reserve(hit->second.size());
  for (NodeId h : hit->second) out.push_back(&slot(job, h));
  return out;
}

void Cluster::borrowers_of(NodeId lender,
                           std::vector<BorrowEdge>& out) const {
  const std::size_t first = out.size();
  borrow_slab_.for_each(checked(lender), [&](std::uint64_t packed) {
    const auto it = slots_.find(SlotKey{packed});
    DMSIM_ASSERT(it != slots_.end(), "reverse index points at a dead slot");
    const AllocationSlot& slot = it->second;
    for (const auto& [from, amount] : slot.remote) {
      if (from == lender) {
        DMSIM_ASSERT(amount > 0, "reverse index holds a zero edge");
        out.push_back(
            BorrowEdge{slot.job, slot.host, amount, tier_[lender.get()]});
        break;  // edges are merged: at most one per lender
      }
    }
  });
  // Canonical order: borrower job id ascending, then the host's position in
  // the job's assignment. This matches a job-id-ordered walk of each job's
  // slots, which the incremental contention refresh relies on for
  // reproducible pressure summation.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [this](const BorrowEdge& a, const BorrowEdge& b) {
              if (a.job != b.job) return a.job < b.job;
              const std::span<const NodeId> hosts = hosts_of(a.job);
              const auto pos = [&hosts](NodeId h) {
                return std::find(hosts.begin(), hosts.end(), h) - hosts.begin();
              };
              return pos(a.host) < pos(b.host);
            });
}

std::vector<Cluster::BorrowEdge> Cluster::borrowers_of(NodeId lender) const {
  std::vector<BorrowEdge> out;
  borrowers_of(lender, out);
  return out;
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

void Cluster::check_invariants() const {
  const std::size_t n = node_count();
  std::vector<MiB> local(n, 0);
  std::vector<MiB> lent(n, 0);
  // Every (lender, slot-key) borrow pair implied by the slots, to compare
  // against the reverse slab wholesale (sort + one linear scan) instead of
  // probing the slab once per edge.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> expected_edges;
  MiB allocated = 0;
  for (const auto& [k, slot] : slots_) {
    (void)k;
    DMSIM_ASSERT(slot.local >= 0, "negative local share");
    local[slot.host.get()] += slot.local;
    allocated += slot.local;
    for (const auto& [lender, amount] : slot.remote) {
      DMSIM_ASSERT(amount > 0, "zero/negative borrow edge left in ledger");
      DMSIM_ASSERT(lender != slot.host, "self-borrow edge");
      lent[lender.get()] += amount;
      allocated += amount;
      expected_edges.emplace_back(lender.get(),
                                  key(slot.job, slot.host).packed);
    }
    DMSIM_ASSERT(running_job_[slot.host.get()] == slot.job.get(),
                 "slot host not running the slot's job");
  }
  // Reverse slab must hold exactly the implied edge set (each edge once).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> actual_edges;
  actual_edges.reserve(expected_edges.size());
  for (std::uint32_t l = 0; l < n; ++l) {
    std::size_t row = 0;
    borrow_slab_.for_each(l, [&](std::uint64_t packed) {
      actual_edges.emplace_back(l, packed);
      ++row;
    });
    DMSIM_ASSERT(row == borrow_slab_.degree[l],
                 "reverse slab degree disagrees with its row");
  }
  std::sort(expected_edges.begin(), expected_edges.end());
  std::sort(actual_edges.begin(), actual_edges.end());
  DMSIM_ASSERT(expected_edges == actual_edges,
               "reverse slab disagrees with live borrow edges");
  DMSIM_ASSERT(borrow_slab_.live == expected_edges.size(),
               "reverse slab live count out of sync");

  // One cache-linear pass over the columns: occupancy sums, bounds, and the
  // derived free/memory-node/membership columns.
  std::size_t host_entries = 0;
  std::size_t free_entries = 0;
  std::size_t mem_free_entries = 0;
  MiB lent_total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    DMSIM_ASSERT(local_used_[i] == local[i],
                 "node local_used disagrees with slots");
    DMSIM_ASSERT(lent_[i] == lent[i], "node lent disagrees with edges");
    DMSIM_ASSERT(local_used_[i] + lent_[i] <= capacity_[i],
                 "node over-committed");
    DMSIM_ASSERT(local_used_[i] >= 0 && lent_[i] >= 0,
                 "negative ledger entry");
    const MiB free = capacity_[i] - local_used_[i] - lent_[i];
    const bool mem = lent_[i] * 2 > capacity_[i];
    const bool host = running_job_[i] == kIdle && !mem;
    const bool lendable = free > 0;
    const bool mem_free = mem && lendable;
    DMSIM_ASSERT(free_[i] == free, "free column out of date");
    DMSIM_ASSERT((mem_node_[i] != 0) == mem, "memory-node column out of date");
    const std::uint8_t bits = static_cast<std::uint8_t>(
        (host ? kInHost : 0) | (lendable ? kInFree : 0) |
        (mem_free ? kInMemFree : 0));
    DMSIM_ASSERT(index_bits_[i] == bits,
                 "index membership bits disagree with node state");
    host_entries += host ? 1 : 0;
    free_entries += lendable ? 1 : 0;
    mem_free_entries += mem_free ? 1 : 0;
    lent_total += lent_[i];
  }
  // Each ordered index: every entry it holds must be a node whose membership
  // bit is set, keyed by that node's current free value; together with the
  // per-node bit counts matching the set sizes, this proves membership is
  // exact (no per-node tree probes needed).
  const auto check_index = [&](const FreeIndex& index, std::uint8_t bit,
                               std::size_t expected,
                               const char* what) {
    DMSIM_ASSERT(index.size() == expected, what);
    for (const FreeKey& k : index) {
      DMSIM_ASSERT(k.second < n && (index_bits_[k.second] & bit) != 0 &&
                       free_[k.second] == k.first,
                   what);
    }
  };
  check_index(host_index_, kInHost, host_entries,
              "host index disagrees with node state");
  check_index(free_index_, kInFree, free_entries,
              "free index disagrees with node state");
  check_index(mem_free_index_, kInMemFree, mem_free_entries,
              "memory-node free index disagrees with node state");
  DMSIM_ASSERT(allocated == total_allocated_,
               "aggregate allocation counter out of sync");
  DMSIM_ASSERT(lent_total == total_lent_, "aggregate lent counter out of sync");
  if (tiered()) {
    // Per-tier recount: free/lent totals and both index variants must agree
    // with a fresh column sweep bucketed by the tier column.
    const std::size_t tc = tiers_.size();
    std::vector<MiB> tier_free(tc, 0);
    std::vector<MiB> tier_lent(tc, 0);
    std::vector<std::size_t> tier_free_entries(tc, 0);
    std::vector<std::size_t> tier_mem_entries(tc, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      DMSIM_ASSERT(tier_[i] < tc, "tier column out of range");
      tier_free[tier_[i]] += free_[i];
      tier_lent[tier_[i]] += lent_[i];
      if (index_bits_[i] & kInFree) ++tier_free_entries[tier_[i]];
      if (index_bits_[i] & kInMemFree) ++tier_mem_entries[tier_[i]];
    }
    for (std::size_t t = 0; t < tc; ++t) {
      DMSIM_ASSERT(tier_free_mib_[t] == tier_free[t],
                   "per-tier free total out of sync");
      DMSIM_ASSERT(tier_lent_mib_[t] == tier_lent[t],
                   "per-tier lent total out of sync");
      DMSIM_ASSERT(tier_free_index_[t].size() == tier_free_entries[t],
                   "per-tier free index disagrees with node state");
      DMSIM_ASSERT(tier_mem_free_index_[t].size() == tier_mem_entries[t],
                   "per-tier mem-free index disagrees with node state");
      for (const FreeKey& k : tier_free_index_[t]) {
        DMSIM_ASSERT(k.second < n && tier_[k.second] == t &&
                         (index_bits_[k.second] & kInFree) != 0 &&
                         free_[k.second] == k.first,
                     "per-tier free index entry invalid");
      }
      for (const FreeKey& k : tier_mem_free_index_[t]) {
        DMSIM_ASSERT(k.second < n && tier_[k.second] == t &&
                         (index_bits_[k.second] & kInMemFree) != 0 &&
                         free_[k.second] == k.first,
                     "per-tier mem-free index entry invalid");
      }
    }
  }
  if (debug_parity_) check_node_view_parity();
}

void Cluster::check_node_view_parity() const {
  // The legacy AoS materialization recomputes free()/memory_node()/idle()
  // from first principles; every derived column and predicate accessor must
  // agree with it node for node.
  const std::vector<Node> view = materialize_nodes();
  DMSIM_ASSERT(view.size() == node_count(),
               "materialized view size disagrees with node count");
  for (const Node& v : view) {
    const NodeId id = v.id;
    const std::uint32_t i = id.get();
    DMSIM_ASSERT(v.free() == free_[i], "view free() disagrees with column");
    DMSIM_ASSERT(v.memory_node() == (mem_node_[i] != 0),
                 "view memory_node() disagrees with column");
    DMSIM_ASSERT(v.idle() == is_idle(id),
                 "view idle() disagrees with accessor");
    DMSIM_ASSERT(v.capacity == capacity_of(id) && v.local_used == local_used_of(id) &&
                     v.lent == lent_of(id) && v.cores == cores_of(id) &&
                     v.large == is_large(id),
                 "view fields disagree with column accessors");
    DMSIM_ASSERT(can_host(id) == (v.idle() && !v.memory_node()),
                 "can_host() disagrees with view predicates");
  }
}

// ---------------------------------------------------------------------------
// Snapshot (checkpoint/restore)
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint32_t kClusterSection =
    snapshot::section_tag('C', 'L', 'U', 'S');
}  // namespace

template <class Self, class Ar>
void Cluster::io(Self& self, Ar&& ar) {
  ar.section(kClusterSection, "cluster");
  const std::size_t n = self.node_count();
  ar.expect(static_cast<std::uint32_t>(n),
            "snapshot: node count mismatch — different cluster configuration");
  // The tier table and the tier/rack topology columns lead the section.
  // They are immutable, but carrying them makes a tier-topology mixup a
  // loud restore error instead of a silently different simulation.
  constexpr const char* kTopology =
      "snapshot: tier table mismatch — different memory topology";
  ar.expect(static_cast<std::uint32_t>(self.tiers_.size()),
            "snapshot: tier table size mismatch — different memory topology");
  for (const MemoryTier& t : self.tiers_) {
    ar.expect(std::string_view(t.name), kTopology);
    ar.expect(t.latency_ns, kTopology);
    ar.expect(t.bandwidth_gbs, kTopology);
    ar.expect(static_cast<std::uint8_t>(t.scope), kTopology);
  }
  for (const std::uint8_t t : self.tier_) {
    ar.expect(t, "snapshot: node tier column mismatch — different memory "
                 "topology");
  }
  for (const std::uint16_t r : self.rack_) {
    ar.expect(std::uint32_t{r}, "snapshot: node rack column mismatch — "
                                "different memory topology");
  }
  // Occupancy columns back to back (all running_job, then all local_used,
  // then all lent) — the serializer walks each array linearly, and a
  // restore bulk-loads straight into the columns.
  for (auto& rj : self.running_job_) ar.u32(rj);
  for (auto& lu : self.local_used_) ar.i64(lu);
  for (auto& le : self.lent_) ar.i64(le);

  // Jobs in id order; each job's hosts in assignment order, each slot's
  // borrow edges in their live merged order.
  const auto slot_io = [&](auto& slot) {
    ar.i64(slot.local);
    ar.require(slot.local >= 0, "snapshot: negative local share");
    ar.seq(slot.remote, [&](auto& edge) {
      ar.u32(edge.first.value);
      ar.i64(edge.second);
      ar.require(edge.first.get() < n && edge.first != slot.host &&
                     edge.second > 0,
                 "snapshot: invalid borrow edge");
      if constexpr (Ar::kLoading) {
        self.borrow_slab_.add(edge.first.get(),
                              key(slot.job, slot.host).packed);
      }
    });
  };
  ar.map(
      self.job_hosts_,
      [&](std::uint32_t job, auto& hosts) {
        ar.seq(hosts, [&](auto& h) {
          ar.u32(h.value);
          ar.require(h.get() < n && self.running_job_[h.get()] == job,
                     "snapshot: slot host is not running the slot's job");
          if constexpr (Ar::kLoading) {
            AllocationSlot slot{JobId{job}, h, 0, {}};
            slot_io(slot);
            ar.require(self.slots_.emplace(key(JobId{job}, h), std::move(slot))
                           .second,
                       "snapshot: duplicate allocation slot");
          } else {
            const auto it = self.slots_.find(key(JobId{job}, h));
            DMSIM_ASSERT(it != self.slots_.end(),
                         "missing slot for assigned host");
            slot_io(it->second);
          }
        });
        ar.require(!hosts.empty(), "snapshot: assigned job with no hosts");
      },
      "snapshot: duplicate job assignment");

  ar.i64(self.total_allocated_);
  ar.i64(self.total_lent_);
  ar.u64(self.change_epoch_);
}

void Cluster::save_state(snapshot::Writer& writer) const {
  io(*this, snapshot::Saver(writer));
}

void Cluster::restore_state(snapshot::Reader& reader) {
  // Wipe all mutable state back to the empty ledger.
  const std::size_t n = node_count();
  slots_.clear();
  job_hosts_.clear();
  borrow_slab_.init(n);
  dirty_lenders_.clear();
  dirty_jobs_.clear();
  lender_dirty_flag_.assign(n, 0);
  io(*this, snapshot::Loader(reader));
  for (std::size_t i = 0; i < n; ++i) {
    if (local_used_[i] < 0 || lent_[i] < 0 ||
        local_used_[i] + lent_[i] > capacity_[i]) {
      throw snapshot::SnapshotError("snapshot: node ledger out of range");
    }
  }
  // Derived columns and all three ordered indexes come back in one bulk
  // pass over the restored occupancy columns.
  rebuild_indexes_bulk();
  // Full validation: per-node sums vs slots, index memberships, reverse
  // index, aggregate counters. A snapshot that passes this is exactly a
  // state the mutation API could have produced.
  check_invariants();
}

}  // namespace dmsim::cluster
