#include "hpcsim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace greenhpc::hpcsim {

namespace {

// Scheduler-visible decision counters. Function-local statics keep the
// registry lookup off the hot path; all updates are relaxed atomics and
// never feed back into simulation state (determinism contract).
obs::Counter& sim_counter(const char* name) {
  return obs::Registry::global().counter(name);
}

/// Dense-table bound: ids beyond this multiple of the job count (plus a
/// fixed floor) indicate a sparse id space where the table would waste
/// memory; such workloads fall back to the hash map.
constexpr std::size_t kDenseSlack = 4;
constexpr std::size_t kDenseFloor = 1024;

/// First SimulationView::running_epoch value of a new simulation: each
/// simulation counts up from its own multiple of 2^32, so no two
/// simulations in a process share a value, and a running-set change
/// costs a plain increment instead of a shared atomic.
std::uint64_t first_running_epoch() {
  static std::atomic<std::uint64_t> simulations{0};
  return (simulations.fetch_add(1, std::memory_order_relaxed) + 1) << 32;
}
}  // namespace

Simulator::Simulator(Config config, util::Shared<std::vector<JobSpec>> jobs)
    : cfg_(std::move(config)),
      jobs_(std::move(jobs)),
      budget_now_(cfg_.cluster.max_power()),
      ci_history_(seconds(0.0), cfg_.cluster.tick),
      running_epoch_(first_running_epoch()),
      result_{.jobs = {},
              .system_power = util::StepSeries(seconds(0.0), cfg_.cluster.tick),
              .power_budget = util::StepSeries(seconds(0.0), cfg_.cluster.tick),
              .carbon_intensity = util::StepSeries(seconds(0.0), cfg_.cluster.tick),
              .busy_nodes = util::StepSeries(seconds(0.0), cfg_.cluster.tick),
              .tick_energy = util::StepSeries(seconds(0.0), cfg_.cluster.tick),
              .makespan = seconds(0.0),
              .idle_floor = cfg_.cluster.idle_power(),
              .total_energy = {},
              .total_carbon = {},
              .idle_energy = {},
              .idle_carbon = {},
              .wasted_energy = {},
              .wasted_carbon = {}} {
  cfg_.cluster.validate();
  GREENHPC_REQUIRE(cfg_.carbon_intensity && !cfg_.carbon_intensity->empty(),
                   "simulator requires a carbon-intensity trace");
  GREENHPC_REQUIRE(static_cast<bool>(jobs_), "simulator requires a job list");
  GREENHPC_REQUIRE(cfg_.faults.max_retries >= 0, "max_retries must be >= 0");
  GREENHPC_REQUIRE(cfg_.faults.backoff_base.seconds() >= 0.0,
                   "backoff base must be >= 0");
  GREENHPC_REQUIRE(cfg_.faults.max_backoff.seconds() > 0.0,
                   "max backoff must be > 0");
  for (const auto& e : cfg_.faults.events) {
    GREENHPC_REQUIRE(e.time.seconds() >= 0.0 && e.nodes >= 1 &&
                         e.repair.seconds() > 0.0,
                     "malformed node-failure event");
  }
  std::stable_sort(cfg_.faults.events.begin(), cfg_.faults.events.end(),
                   [](const NodeFailureEvent& a, const NodeFailureEvent& b) {
                     return a.time < b.time;
                   });
  victim_rng_ = util::Rng(cfg_.faults.victim_seed);
  free_nodes_ = cfg_.cluster.nodes;
  slots_.reserve(jobs_->size());
  JobId max_id = -1;
  bool dense_ok = true;
  for (const JobSpec& j : *jobs_) {
    j.validate();
    GREENHPC_REQUIRE(j.nodes_requested <= cfg_.cluster.nodes &&
                         j.max_nodes <= cfg_.cluster.nodes,
                     "job larger than the cluster");
    const auto idx = slots_.size();
    GREENHPC_REQUIRE(index_.emplace(j.id, idx).second, "duplicate job id");
    if (j.id < 0) dense_ok = false;
    max_id = std::max(max_id, j.id);
    slots_.push_back(JobSlot{.spec = &j, .info = {}});
  }
  if (dense_ok && !slots_.empty() &&
      static_cast<std::size_t>(max_id) <
          kDenseSlack * slots_.size() + kDenseFloor) {
    dense_index_.assign(static_cast<std::size_t>(max_id) + 1, -1);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      dense_index_[static_cast<std::size_t>(slots_[i].spec->id)] =
          static_cast<std::int32_t>(i);
    }
  }
  arrival_order_.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) arrival_order_[i] = i;
  std::stable_sort(arrival_order_.begin(), arrival_order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (slots_[a].spec->submit != slots_[b].spec->submit) {
                       return slots_[a].spec->submit < slots_[b].spec->submit;
                     }
                     return slots_[a].spec->id < slots_[b].spec->id;
                   });

  // Flatten the static job description into the SoA core and expose the
  // columns through the policy-facing table view.
  const std::size_t n = slots_.size();
  core_.init(n);
  for (std::size_t i = 0; i < n; ++i) core_.fill_static(i, *slots_[i].spec);
  table_ = core_.table();
}

std::size_t Simulator::slot_index_slow(JobId id) const {
  const auto it = index_.find(id);
  GREENHPC_REQUIRE(it != index_.end(), "unknown job id");
  return it->second;
}

void Simulator::list_push(std::vector<JobId>& list, Queue kind, JobId id) {
  const std::size_t idx = slot_index(id);
  JobSlot& s = slots_[idx];
  s.queue = kind;
  s.list_pos = static_cast<std::int32_t>(list.size());
  list.push_back(id);
  if (&list == &running_) {
    running_slots_.push_back(idx);
    bump_running_epoch();
  }
  ++epoch_;
}

void Simulator::list_erase(std::vector<JobId>& list, JobId id) {
  JobSlot& s = slots_[slot_index(id)];
  const auto pos = static_cast<std::size_t>(s.list_pos);
  GREENHPC_REQUIRE(pos < list.size() && list[pos] == id,
                   "phase-list bookkeeping out of sync");
  list.erase(list.begin() + static_cast<std::ptrdiff_t>(pos));
  if (&list == &running_) {
    running_slots_.erase(running_slots_.begin() +
                         static_cast<std::ptrdiff_t>(pos));
    bump_running_epoch();
  }
  for (std::size_t i = pos; i < list.size(); ++i) {
    slots_[slot_index(list[i])].list_pos = static_cast<std::int32_t>(i);
  }
  s.queue = Queue::None;
  s.list_pos = -1;
  ++epoch_;
}

int Simulator::busy_nodes_of(std::size_t i) const {
  const int alloc = core_.alloc_nodes[i];
  if (core_.kind[i] == JobKind::Malleable) return alloc;
  return std::min(alloc, static_cast<int>(core_.nodes_used[i]));
}

double Simulator::scale_speed(std::size_t i) const {
  const double busy = static_cast<double>(busy_nodes_of(i));
  const double natural = static_cast<double>(core_.nodes_used[i]);
  if (busy == natural) return 1.0;
  return std::pow(busy / natural, core_.scale_gamma[i]);
}

double Simulator::cap_speed(std::size_t i, double cap) const {
  if (cap == 1.0) return 1.0;  // pow(1, alpha) == 1 exactly
  if (cap != core_.cap_key[i]) {
    core_.cap_key[i] = cap;
    core_.cap_val[i] = std::pow(cap, core_.power_alpha[i]);
  }
  return core_.cap_val[i];
}

double Simulator::scale_factor(std::size_t i) const {
  const int busy = busy_nodes_of(i);
  if (busy == core_.nodes_used[i]) return 1.0;
  if (busy != core_.scale_key[i]) {
    core_.scale_key[i] = busy;
    core_.scale_val[i] = scale_speed(i);
  }
  return core_.scale_val[i];
}

void Simulator::bump_running_epoch() { ++running_epoch_; }

const std::shared_ptr<const util::TimeSeries>& Simulator::intensity_trace() const {
  intensity_read_ = true;
  static const std::shared_ptr<const util::TimeSeries> none;
  return cfg_.feed == nullptr ? cfg_.carbon_intensity.ptr() : none;
}

Duration Simulator::intensity_constant_until() const {
  intensity_read_ = true;
  if (cfg_.feed != nullptr) return now_;
  return cfg_.carbon_intensity->segment_end(now_);
}

Duration Simulator::estimated_remaining(JobId id) const {
  const std::size_t i = slot_index(id);
  const JobSlot& s = slots_[i];
  const double remaining_fraction = std::max(0.0, 1.0 - core_.progress[i]);
  switch (s.info.phase) {
    case JobPhase::Pending:
      return s.spec->walltime;
    case JobPhase::Running: {
      const double speed = cap_speed(i, last_cap_) * scale_factor(i);
      return seconds(remaining_fraction * core_.runtime_s[i] / std::max(speed, 1e-9));
    }
    case JobPhase::Suspended:
      return seconds(remaining_fraction * core_.runtime_s[i]);
    case JobPhase::Done:
      return seconds(0.0);
  }
  return seconds(0.0);
}

Power Simulator::full_draw() const {
  double watts_total =
      cfg_.cluster.node_idle.watts() * static_cast<double>(free_nodes_);
  for (const std::size_t i : running_slots_) {
    const int busy = busy_nodes_of(i);
    const int extra = core_.alloc_nodes[i] - busy;
    watts_total += static_cast<double>(busy) * core_.eff_power_w[i] +
                   static_cast<double>(extra) * cfg_.cluster.node_idle.watts();
  }
  return watts(watts_total);
}

bool Simulator::allocation_valid(const JobSpec& job, int nodes) const {
  if (nodes < 1 || nodes > cfg_.cluster.nodes) return false;
  if (job.kind == JobKind::Rigid) return nodes == job.nodes_requested;
  return nodes >= job.min_nodes && nodes <= job.max_nodes;
}

bool Simulator::start(JobId id, int nodes) {
  const std::size_t i = slot_index(id);
  JobSlot& s = slots_[i];
  if (s.info.phase != JobPhase::Pending) return false;
  if (!allocation_valid(*s.spec, nodes)) return false;
  if (nodes > free_nodes_) return false;
  s.info.phase = JobPhase::Running;
  core_.alloc_nodes[i] = nodes;
  core_.start_s[i] = now_.seconds();
  core_.last_checkpoint_s[i] = now_.seconds();  // periodic-checkpoint clock
  free_nodes_ -= nodes;
  // A Pending job sits in the pending queue, or still in the requeue
  // buffer while its post-failure backoff runs (a policy starting it
  // early via a remembered id is legal).
  list_erase(s.queue == Queue::Requeued ? requeued_ : pending_, id);
  list_push(running_, Queue::Running, id);
  static obs::Counter& started = sim_counter("sim.jobs_started");
  started.add();
  return true;
}

bool Simulator::suspend(JobId id) {
  const std::size_t i = slot_index(id);
  JobSlot& s = slots_[i];
  if (s.info.phase != JobPhase::Running || !s.spec->checkpointable) return false;
  // Charge the checkpoint overhead as lost progress (bounded at zero).
  const double lost = core_.ckpt_overhead_s[i] / core_.runtime_s[i];
  core_.progress[i] = std::max(0.0, core_.progress[i] - lost);
  // A suspend writes a checkpoint: failures roll back here, not to scratch.
  s.info.ckpt_progress = core_.progress[i];
  s.info.energy_mark = joules(core_.energy_j[i]);
  s.info.carbon_mark = grams_co2(core_.carbon_g[i]);
  free_nodes_ += core_.alloc_nodes[i];
  core_.alloc_nodes[i] = 0;
  s.info.phase = JobPhase::Suspended;
  ++s.info.suspend_count;
  list_erase(running_, id);
  list_push(suspended_, Queue::Suspended, id);
  static obs::Counter& suspended = sim_counter("sim.jobs_suspended");
  suspended.add();
  return true;
}

bool Simulator::checkpoint(JobId id) {
  const std::size_t i = slot_index(id);
  JobSlot& s = slots_[i];
  if (s.info.phase != JobPhase::Running || !s.spec->checkpointable) return false;
  // The job keeps its nodes but spends checkpoint_overhead writing state
  // instead of progressing; charged as lost progress like suspend.
  const double lost = core_.ckpt_overhead_s[i] / core_.runtime_s[i];
  core_.progress[i] = std::max(0.0, core_.progress[i] - lost);
  s.info.ckpt_progress = core_.progress[i];
  core_.last_checkpoint_s[i] = now_.seconds();
  ++s.info.checkpoint_count;
  ++result_.checkpoints_taken;
  result_.checkpoint_node_seconds +=
      core_.ckpt_overhead_s[i] * static_cast<double>(core_.nodes_used[i]);
  s.info.energy_mark = joules(core_.energy_j[i]);
  s.info.carbon_mark = grams_co2(core_.carbon_g[i]);
  ++epoch_;
  static obs::Counter& checkpoints = sim_counter("sim.checkpoints");
  checkpoints.add();
  return true;
}

bool Simulator::resume(JobId id, int nodes) {
  const std::size_t i = slot_index(id);
  JobSlot& s = slots_[i];
  if (s.info.phase != JobPhase::Suspended) return false;
  if (!allocation_valid(*s.spec, nodes)) return false;
  if (nodes > free_nodes_) return false;
  s.info.phase = JobPhase::Running;
  core_.alloc_nodes[i] = nodes;
  core_.last_checkpoint_s[i] = now_.seconds();
  free_nodes_ -= nodes;
  list_erase(suspended_, id);
  list_push(running_, Queue::Running, id);
  static obs::Counter& resumed = sim_counter("sim.jobs_resumed");
  resumed.add();
  return true;
}

bool Simulator::reshape(JobId id, int nodes) {
  const std::size_t i = slot_index(id);
  JobSlot& s = slots_[i];
  if (s.info.phase != JobPhase::Running || s.spec->kind != JobKind::Malleable) return false;
  if (!allocation_valid(*s.spec, nodes)) return false;
  const int delta = nodes - core_.alloc_nodes[i];
  if (delta > free_nodes_) return false;
  free_nodes_ -= delta;
  core_.alloc_nodes[i] = nodes;
  ++epoch_;
  bump_running_epoch();
  static obs::Counter& reshapes = sim_counter("sim.reshapes");
  reshapes.add();
  return true;
}

void Simulator::fail_job(JobId id) {
  const std::size_t i = slot_index(id);
  JobSlot& s = slots_[i];
  const double restored =
      s.spec->checkpointable ? std::min(s.info.ckpt_progress, core_.progress[i]) : 0.0;
  const double lost = std::max(0.0, core_.progress[i] - restored);
  result_.lost_node_seconds +=
      lost * core_.runtime_s[i] * static_cast<double>(core_.nodes_used[i]);
  // Everything burnt since the last checkpoint produced no retained work.
  result_.wasted_energy += joules(core_.energy_j[i]) - s.info.energy_mark;
  result_.wasted_carbon += grams_co2(core_.carbon_g[i]) - s.info.carbon_mark;
  s.info.energy_mark = joules(core_.energy_j[i]);
  s.info.carbon_mark = grams_co2(core_.carbon_g[i]);
  free_nodes_ += core_.alloc_nodes[i];
  core_.alloc_nodes[i] = 0;
  core_.progress[i] = restored;
  // Requeue resets the walltime clock to the restored execution point.
  core_.wall_used_s[i] = restored * core_.runtime_s[i];
  ++s.info.failure_count;
  ++result_.job_failures;
  static obs::Counter& failures = sim_counter("sim.job_failures");
  failures.add();
  list_erase(running_, id);
  if (s.info.failure_count > cfg_.faults.max_retries) {
    s.info.phase = JobPhase::Done;
    s.info.failed = true;
    s.info.finish = now_;
    ++result_.jobs_failed;
    result_.makespan = std::max(result_.makespan, s.info.finish);
    static obs::Counter& abandoned = sim_counter("sim.jobs_abandoned");
    abandoned.add();
    return;
  }
  s.info.phase = JobPhase::Pending;
  const double backoff = std::min(
      cfg_.faults.backoff_base.seconds() *
          std::pow(2.0, static_cast<double>(s.info.failure_count - 1)),
      cfg_.faults.max_backoff.seconds());
  s.info.requeue_ready = now_ + seconds(backoff);
  list_push(requeued_, Queue::Requeued, id);
  static obs::Counter& requeued = sim_counter("sim.jobs_requeued");
  requeued.add();
}

void Simulator::fail_one_node() {
  // The node pool is anonymous, so the victim is drawn from the seeded
  // stream: a uniformly chosen up-node is idle with probability
  // free/up, else it hits a running job in proportion to its allocation.
  const int up = cfg_.cluster.nodes - nodes_down_;
  const std::int64_t r = victim_rng_.uniform_int(0, up - 1);
  if (r < free_nodes_) {
    --free_nodes_;
    ++epoch_;
    return;
  }
  std::int64_t acc = free_nodes_;
  for (std::size_t j = 0; j < running_.size(); ++j) {
    acc += core_.alloc_nodes[running_slots_[j]];
    if (r < acc) {
      fail_job(running_[j]);  // releases the job's whole allocation...
      --free_nodes_;          // ...then the failed node itself goes down
      ++epoch_;
      return;
    }
  }
  // Every up-node is either free or allocated to a running job, so the
  // draw must have landed above; reaching here means the node accounting
  // (free_nodes_ + sum of allocations == up) is broken.
  GREENHPC_REQUIRE(false,
                   "fault victim draw landed on neither a free node nor a "
                   "running job: node bookkeeping violated");
}

void Simulator::advance_faults() {
  if (!cfg_.faults.enabled()) return;
  // 1. repairs whose downtime has elapsed
  std::size_t w = 0;
  for (std::size_t i = 0; i < repairs_.size(); ++i) {
    if (repairs_[i] <= now_) {
      --nodes_down_;
      ++free_nodes_;
      ++epoch_;
    } else {
      repairs_[w++] = repairs_[i];
    }
  }
  repairs_.resize(w);
  // 2. due failure events
  const auto& events = cfg_.faults.events;
  while (next_failure_ < events.size() && events[next_failure_].time <= now_) {
    const auto& e = events[next_failure_];
    for (int k = 0; k < e.nodes; ++k) {
      if (nodes_down_ >= cfg_.cluster.nodes) break;  // nothing left to kill
      fail_one_node();
      ++nodes_down_;
      repairs_.push_back(now_ + e.repair);
      ++result_.node_failures;
      static obs::Counter& node_failures = sim_counter("sim.node_failures");
      node_failures.add();
    }
    ++next_failure_;
  }
  // 3. requeued jobs whose backoff expired rejoin the pending queue
  //    (stable order: failure order is retry order)
  w = 0;
  for (std::size_t i = 0; i < requeued_.size(); ++i) {
    const JobId id = requeued_[i];
    JobSlot& s = slots_[slot_index(id)];
    if (s.info.requeue_ready <= now_) {
      list_push(pending_, Queue::Pending, id);
    } else {
      s.list_pos = static_cast<std::int32_t>(w);
      requeued_[w++] = id;
    }
  }
  requeued_.resize(w);
}

void Simulator::observe_intensity() {
  ci_true_ = cfg_.carbon_intensity->sample_at_clamped(now_, ci_cursor_);
  if (cfg_.feed == nullptr) {
    ci_now_ = ci_true_;
    staleness_ = seconds(0.0);
    return;
  }
  const auto obs = cfg_.feed->observe(now_, ci_true_);
  if (obs.has_value()) {
    ci_now_ = *obs;
    last_fresh_ = now_;
    ever_fresh_ = true;
  } else if (!ever_fresh_) {
    // Feed down from the very start: hold the t=0 ground truth as the
    // install-time reading; staleness then grows from simulation start.
    ci_now_ = cfg_.carbon_intensity->sample_at_clamped(seconds(0.0));
  }
  staleness_ = now_ - last_fresh_;
}

Simulator::PowerCap Simulator::power_cap() const {
  // Uniform cap on the busy (job) share when over budget.
  const double idle_w = cfg_.cluster.node_idle.watts();
  const double budget_w = budget_now_.watts();
  double busy_full_w = 0.0;
  double baseline_w = idle_w * static_cast<double>(free_nodes_);
  for (const std::size_t i : running_slots_) {
    const int busy = busy_nodes_of(i);
    busy_full_w += static_cast<double>(busy) * core_.eff_power_w[i];
    baseline_w += static_cast<double>(core_.alloc_nodes[i] - busy) * idle_w;
  }
  PowerCap pc;
  pc.demand_w = baseline_w + busy_full_w;
  if (busy_full_w > 0.0 && pc.demand_w > budget_w) {
    pc.cap = (budget_w - baseline_w) / busy_full_w;
    if (pc.cap < cfg_.cluster.min_cap_fraction) {
      pc.cap = cfg_.cluster.min_cap_fraction;
      pc.violation = true;
    }
    pc.cap = std::min(pc.cap, 1.0);
  } else if (busy_full_w == 0.0 && baseline_w > budget_w) {
    pc.violation = true;  // idle floor alone exceeds the budget
  }
  return pc;
}

Simulator::JobRate Simulator::job_rate(std::size_t i, double cap) const {
  const int busy = busy_nodes_of(i);
  const int extra = core_.alloc_nodes[i] - busy;
  const double speed = cap_speed(i, cap) * scale_factor(i);
  return {speed / core_.runtime_s[i],
          static_cast<double>(busy) * core_.eff_power_w[i] * cap +
              static_cast<double>(extra) * cfg_.cluster.node_idle.watts()};
}

void Simulator::commit_tick(double energy_j, double idle_j, double busy_nodes, double ci,
                            bool violation) {
  if (violation) ++result_.budget_violations;
  result_.idle_energy += joules(idle_j);
  result_.idle_carbon += grams_co2(idle_j / 3.6e6 * ci);
  result_.total_energy += joules(energy_j);
  result_.total_carbon += grams_co2(energy_j / 3.6e6 * ci);

  result_.tick_energy.push_back(energy_j);
  result_.power_budget.push_back(budget_now_.watts());
  // Accounting series records the ground truth; policies' observed/held
  // signal is exposed through intensity_history() and telemetry below.
  result_.carbon_intensity.push_back(ci);
  result_.busy_nodes.push_back(busy_nodes);
  if (cfg_.telemetry != nullptr) {
    telemetry::SensorStore& t = *cfg_.telemetry;
    t.record("system.power", now_, energy_j / cfg_.cluster.tick.seconds());
    t.record("system.budget", now_, budget_now_.watts());
    t.record("system.ci", now_, ci);
    t.record("system.busy_nodes", now_, busy_nodes);
    if (cfg_.faults.enabled()) {
      t.record("system.nodes_down", now_, static_cast<double>(nodes_down_));
    }
    if (cfg_.feed != nullptr) {
      t.record("system.ci_observed", now_, ci_now_);
      t.record("system.ci_staleness", now_, staleness_.seconds());
    }
  }
  ci_history_.push_back(ci_now_);
  now_ += cfg_.cluster.tick;
}

void Simulator::integrate_tick() {
  const double tick_s = cfg_.cluster.tick.seconds();
  const double idle_w = cfg_.cluster.node_idle.watts();
  const PowerCap pc = power_cap();
  last_cap_ = pc.cap;

  // Integrate each running job; handle mid-tick completion analytically.
  double tick_energy_j = 0.0;
  double busy_nodes_total = 0.0;
  bool any_finished = false;
  for (const std::size_t i : running_slots_) {
    JobSlot& s = slots_[i];
    const JobRate jr = job_rate(i, pc.cap);
    double dt = tick_s;
    if (jr.rate > 0.0 && core_.progress[i] + jr.rate * tick_s >= 1.0) {
      dt = (1.0 - core_.progress[i]) / jr.rate;
      core_.progress[i] = 1.0;
      s.info.phase = JobPhase::Done;
      s.info.finish = now_ + seconds(dt);
      any_finished = true;
    } else {
      // Walltime enforcement: the clock only runs while the job executes.
      if (cfg_.cluster.enforce_walltime) {
        const double remaining_wall = core_.walltime_s[i] - core_.wall_used_s[i];
        if (remaining_wall <= tick_s) {
          dt = std::max(0.0, remaining_wall);
          s.info.phase = JobPhase::Done;
          s.info.killed = true;
          s.info.finish = now_ + seconds(dt);
          any_finished = true;
          ++result_.walltime_kills;
          ++pending_kills_;  // batched: flushed once per span / tick
        }
      }
      core_.progress[i] += jr.rate * dt;
    }
    core_.wall_used_s[i] += dt;
    const double job_energy_j = jr.draw_w * dt;
    core_.energy_j[i] += job_energy_j;
    core_.carbon_g[i] += job_energy_j / 3.6e6 * ci_true_;
    tick_energy_j += job_energy_j;
    busy_nodes_total += static_cast<double>(core_.alloc_nodes[i]) * (dt / tick_s);
  }
  if (any_finished) {
    // Single order-preserving compaction of the running list: completed
    // slots release their nodes; survivors keep their relative order (and
    // get their positions rewritten once), so policies observe the same
    // queue the per-id erase produced.
    ++epoch_;
    bump_running_epoch();
    std::size_t w = 0;
    for (std::size_t r = 0; r < running_.size(); ++r) {
      const JobId id = running_[r];
      const std::size_t i = running_slots_[r];
      JobSlot& s = slots_[i];
      if (s.info.phase == JobPhase::Done) {
        free_nodes_ += core_.alloc_nodes[i];
        core_.alloc_nodes[i] = 0;
        s.queue = Queue::None;
        s.list_pos = -1;
        result_.makespan = std::max(result_.makespan, s.info.finish);
        if (!s.info.killed) {
          ++result_.completed_jobs;
          ++pending_completions_;  // batched: flushed once per span / tick
        }
      } else {
        s.list_pos = static_cast<std::int32_t>(w);
        running_[w] = id;
        running_slots_[w] = i;
        ++w;
      }
    }
    running_.resize(w);
    running_slots_.resize(w);
  }

  // Idle draw: nodes free for the whole tick plus freed fractions of
  // finishing jobs are approximated by end-of-tick free count.
  const double idle_energy_j = idle_w * static_cast<double>(free_nodes_) * tick_s;
  tick_energy_j += idle_energy_j;
  commit_tick(tick_energy_j, idle_energy_j, busy_nodes_total, ci_true_, pc.violation);
}

void Simulator::flush_job_counters() {
  if (pending_completions_ > 0) {
    static obs::Counter& completed = sim_counter("sim.jobs_completed");
    completed.add(pending_completions_);
    pending_completions_ = 0;
  }
  if (pending_kills_ > 0) {
    static obs::Counter& kills = sim_counter("sim.walltime_kills");
    kills.add(pending_kills_);
    pending_kills_ = 0;
  }
}

Duration Simulator::span_window(Duration horizon, Duration hard_end,
                                bool ride_arrivals) const {
  Duration end = std::min(horizon, hard_end);
  if (!ride_arrivals && next_arrival_ < arrival_order_.size()) {
    end = std::min(end, slots_[arrival_order_[next_arrival_]].spec->submit);
  }
  return end;
}

std::size_t Simulator::run_span(SchedulingPolicy& sched, Duration hard_end,
                                Duration span_end, bool ride_arrivals) {
  static obs::Counter& span_event_ticks = sim_counter("sim.span_completion_ticks");
  static obs::Counter& release_rides = sim_counter("sim.release_rides");
  const Duration tick = cfg_.cluster.tick;
  const double tick_s = tick.seconds();
  const double idle_w = cfg_.cluster.node_idle.watts();
  const bool enforce_wt = cfg_.cluster.enforce_walltime;

  // With no feed the observed intensity IS the ground-truth trace, which
  // is piecewise-constant per trace segment — hoist the sample and reload
  // only at segment boundaries instead of per tick. seg_end starts at
  // now_ to force the first load; it persists across sub-spans (the
  // trace does not care about completions).
  const bool hoist_ci = cfg_.feed == nullptr;
  const util::TimeSeries& trace = *cfg_.carbon_intensity;
  Duration seg_end = now_;
  // Check-free chunks need a constant observed intensity and no per-tick
  // telemetry records (those carry the per-tick timestamp).
  const bool chunkable = hoist_ci && cfg_.telemetry == nullptr;

  std::size_t n = 0;
  std::size_t event_ticks = 0;
  std::size_t rides = 0;  ///< in-span releases the policy let the span ride

  // Sub-span state: hoisted by the full pass below, or patched
  // incrementally after an in-span completion when the cap provably did
  // not move (see the incremental re-hoist at the bottom of the loop).
  std::size_t k = 0;
  double cap = 1.0;
  bool violation = false;
  double tick_energy_j = 0.0;
  double busy_nodes_total = 0.0;
  double idle_energy_j = 0.0;
  bool full_hoist = true;
  bool cap_stable = false;

  // Sync the compacted survivors' integrator columns from the (always
  // authoritative) scratch accumulators. The in-span event path leaves
  // survivor columns mid-span stale, so every point where continuous
  // state may be read — span exit, horizon re-asks, a full re-gather —
  // scatters first. quiescent_over_release deliberately needs no sync:
  // its contract is discrete-state-only.
  const auto scatter = [this](std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      const auto i = static_cast<std::size_t>(core_.sp_slot[j]);
      core_.progress[i] = core_.sp_prog[j];
      core_.wall_used_s[i] = core_.sp_wall[j];
      core_.energy_j[i] = core_.sp_en[j];
      core_.carbon_g[i] = core_.sp_cb[j];
    }
  };

  // One iteration per sub-span: hoist constants for the current running
  // set, integrate flat ticks to the next finish, resolve the finish
  // in-kernel, re-attest, continue. The loop exits at the horizon / hard
  // bound, or at the first release the policy reacts to.
  for (;;) {
  if (full_hoist) {
  k = running_slots_.size();

  // Per-sub-span constants, computed by integrate_tick's own power_cap()
  // and job_rate() on the frozen discrete state: the values
  // integrate_tick would recompute tick after tick are hoisted, not
  // approximated.
  const PowerCap pc = power_cap();
  cap = pc.cap;
  violation = pc.violation;
  last_cap_ = cap;
  // A node release flips its draw between the job term and the idle
  // floor, moving total demand by at most idle_w per node — nodes *
  // idle_w across every possible compaction of this set. Slack beyond
  // that bound (plus a 1 W margin that dwarfs accumulated rounding)
  // proves the cap stays 1.0 and uncapped through any sequence of
  // in-span releases, so the per-event cap recompute can be skipped.
  cap_stable = cap == 1.0 && !violation &&
               budget_now_.watts() - pc.demand_w >
                   static_cast<double>(cfg_.cluster.nodes) * idle_w + 1.0;

  // Gather the running set into the compacted scratch columns: per-tick
  // constants (energy, carbon integrand, progress step) plus local
  // accumulators that scatter back at sub-span exit. Accumulating
  // locally is bit-identical to accumulating in place — each accumulator
  // receives the same additions in the same order.
  tick_energy_j = 0.0;
  busy_nodes_total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = running_slots_[j];
    const JobRate jr = job_rate(i, cap);
    const double job_energy_j = jr.draw_w * tick_s;
    core_.sp_slot[j] = static_cast<std::int32_t>(i);
    core_.sp_ej[j] = job_energy_j;
    core_.sp_dj[j] = job_energy_j / 3.6e6;
    core_.sp_rp[j] = jr.rate * tick_s;
    core_.sp_prog[j] = core_.progress[i];
    core_.sp_wall[j] = core_.wall_used_s[i];
    core_.sp_wl[j] = core_.walltime_s[i];
    core_.sp_en[j] = core_.energy_j[i];
    core_.sp_cb[j] = core_.carbon_g[i];
    tick_energy_j += job_energy_j;
    busy_nodes_total += static_cast<double>(core_.alloc_nodes[i]) * (tick_s / tick_s);
  }
  idle_energy_j = idle_w * static_cast<double>(free_nodes_) * tick_s;
  tick_energy_j += idle_energy_j;
  }
  full_hoist = true;

  bool event = false;
  while (now_ < span_end) {
    // Arrival-riding: the policy attested (quiescent_over_arrivals) that
    // back-of-queue arrivals cannot change its decisions mid-span, so the
    // engine performs the queue pushes itself at the exact arrival ticks
    // — the same top-of-tick position the per-tick loop uses, and
    // idempotent with its replay when the span exits on an event.
    if (ride_arrivals) {
      while (next_arrival_ < arrival_order_.size() &&
             slots_[arrival_order_[next_arrival_]].spec->submit <= now_) {
        list_push(pending_, Queue::Pending,
                  slots_[arrival_order_[next_arrival_]].spec->id);
        ++next_arrival_;
      }
    }
    // Exit checks run BEFORE this tick is observed or integrated: the
    // tick an event lands in leaves the flat loop and is resolved below
    // by the exact integrate path (analytic mid-tick completion,
    // walltime clamp, feed observation).
    event = false;
    for (std::size_t j = 0; j < k; ++j) {
      event |= core_.sp_rp[j] > 0.0 && core_.sp_prog[j] + core_.sp_rp[j] >= 1.0;
    }
    if (enforce_wt && !event) {
      for (std::size_t j = 0; j < k; ++j) {
        event |= core_.sp_wl[j] - core_.sp_wall[j] <= tick_s;
      }
    }
    if (event) break;
    if (hoist_ci) {
      if (now_ >= seg_end) {
        ci_true_ = trace.sample_at_clamped(now_, ci_cursor_);
        ci_now_ = ci_true_;
        staleness_ = seconds(0.0);
        seg_end = trace.segment_end(now_);
      }
    } else {
      observe_intensity();
    }
    const double ci = ci_true_;

    if (chunkable) {
      // Check-free chunk: run t ticks with no per-tick exit, segment-
      // reload or arrival tests, for a t conservatively proven to
      // trigger none of them. The absolute margins (1e-9 progress,
      // 1e-3 s walltime, 1e-2 s clock) dwarf the worst-case rounding the
      // repeated additions can accumulate over 2^21 ticks (< 1e-5 in
      // these units), so every skipped test provably evaluates false;
      // every arithmetic operation performed is the same operation in
      // the same order as the per-tick loop, so the chunk is
      // bit-identical. Whatever the margins shave off is handled by the
      // per-tick iterations that follow.
      const double now_s = now_.seconds();
      double lim = 2097152.0;
      lim = std::min(lim, (span_end.seconds() - now_s - 1e-2) / tick_s);
      lim = std::min(lim, (seg_end.seconds() - now_s - 1e-2) / tick_s);
      if (ride_arrivals && next_arrival_ < arrival_order_.size()) {
        lim = std::min(
            lim,
            (slots_[arrival_order_[next_arrival_]].spec->submit.seconds() -
             now_s - 1e-2) /
                tick_s);
      }
      long t = lim > 0.0 ? static_cast<long>(lim) : 0;
      for (std::size_t j = 0; j < k && t > 0; ++j) {
        if (core_.sp_rp[j] > 0.0) {
          const double tp =
              (1.0 - 1e-9 - core_.sp_prog[j]) / core_.sp_rp[j] - 1.0;
          t = std::min(t, tp > 0.0 ? static_cast<long>(tp) : 0L);
        }
        if (enforce_wt) {
          const double tw =
              (core_.sp_wl[j] - core_.sp_wall[j] - tick_s - 1e-3) / tick_s -
              1.0;
          t = std::min(t, tw > 0.0 ? static_cast<long>(tw) : 0L);
        }
      }
      // Engage for any t >= 1: the limit computation is already paid by
      // this point, and a chunked tick is strictly cheaper than the
      // checked fall-through below (which would recompute the limit on
      // the very next tick). The chunk is commit_tick's run-length form:
      // one addition per accumulator per tick, in tick order, and one
      // append_fill per series.
      if (t >= 1) {
        for (long s = 0; s < t; ++s) {
          for (std::size_t j = 0; j < k; ++j) {
            core_.sp_prog[j] += core_.sp_rp[j];
            core_.sp_wall[j] += tick_s;
            core_.sp_en[j] += core_.sp_ej[j];
            core_.sp_cb[j] += core_.sp_dj[j] * ci;
          }
        }
        const double idle_carbon_g = idle_energy_j / 3.6e6 * ci;
        const double tick_carbon_g = tick_energy_j / 3.6e6 * ci;
        for (long s = 0; s < t; ++s) {
          result_.idle_energy += joules(idle_energy_j);
          result_.idle_carbon += grams_co2(idle_carbon_g);
          result_.total_energy += joules(tick_energy_j);
          result_.total_carbon += grams_co2(tick_carbon_g);
          now_ += tick;
        }
        if (violation) result_.budget_violations += static_cast<int>(t);
        const auto m = static_cast<std::size_t>(t);
        result_.tick_energy.append_fill(m, tick_energy_j);
        result_.power_budget.append_fill(m, budget_now_.watts());
        result_.carbon_intensity.append_fill(m, ci);
        result_.busy_nodes.append_fill(m, busy_nodes_total);
        ci_history_.append_fill(m, ci_now_);
        n += m;
        continue;
      }
    }

    for (std::size_t j = 0; j < k; ++j) {
      core_.sp_prog[j] += core_.sp_rp[j];
      core_.sp_wall[j] += tick_s;
      core_.sp_en[j] += core_.sp_ej[j];
      core_.sp_cb[j] += core_.sp_dj[j] * ci;
    }
    commit_tick(tick_energy_j, idle_energy_j, busy_nodes_total, ci, violation);
    ++n;
  }
  if (!event) {
    // Span exit (horizon / bound reached): scatter the local
    // accumulators back to the slot columns. The in-span event path
    // skips this — its fused pass below finalizes the leavers' columns
    // itself and keeps the survivors scratch-resident, so the
    // intermediate pre-tick sync would be dead stores.
    scatter(k);
    break;
  }

  // --- in-span event tick (analytic) -----------------------------------
  // The tick a completion or walltime kill lands in replays
  // integrate_tick's exact per-tick sequence — same expressions, same
  // operand order — fused with the order-preserving compaction of the
  // running lists AND of the scratch columns, so the kernel continues
  // without a full re-gather. The cap is the hoisted one: integrate_tick
  // would recompute it from the same frozen discrete state, hence
  // bit-identically. Arrivals due at this tick were already pushed above
  // when riding; when not riding, span_end is bounded by the next
  // arrival so none are due. Faults, repairs and requeue releases cannot
  // occur before hard_end, and the policy's quiescence attestation
  // covers this tick (< span_end <= horizon), so skipping on_tick is
  // exact. The per-job branches read scratch — authoritative since the
  // last gather. Leavers get their columns finalized here (their scratch
  // rows are recycled by the compaction); survivors advance in scratch
  // only and their columns catch up at the next scatter point.
  if (hoist_ci) {
    if (now_ >= seg_end) {
      // Segment boundary falls on the event tick: load the fresh sample
      // (same call the flat loop would make; seg_end stays put so the
      // next sub-span recomputes the segment bound).
      ci_true_ = trace.sample_at_clamped(now_, ci_cursor_);
      ci_now_ = ci_true_;
      staleness_ = seconds(0.0);
    }
  } else {
    observe_intensity();
  }
  // Next sub-span totals, accumulated over the survivors in compacted
  // order — the same additions in the same order the re-hoist's totals
  // rebuild would perform, so using them is bit-identical.
  double next_energy_j = 0.0;
  double next_busy_nodes = 0.0;
  {
  const double ci = ci_true_;
  double ev_energy_j = 0.0;
  double ev_busy_nodes = 0.0;
  bool any_finished = false;
  std::size_t w = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto i = static_cast<std::size_t>(core_.sp_slot[j]);
    JobSlot& s = slots_[i];
    const bool completes =
        core_.sp_rp[j] > 0.0 && core_.sp_prog[j] + core_.sp_rp[j] >= 1.0;
    double dt = tick_s;
    bool killed = false;
    if (!completes && enforce_wt) {
      const double remaining_wall = core_.sp_wl[j] - core_.sp_wall[j];
      if (remaining_wall <= tick_s) {
        dt = std::max(0.0, remaining_wall);
        killed = true;
      }
    }
    if (completes || killed) {
      // Analytic mid-tick completion or walltime clamp (the clock only
      // runs while the job executes): dt, energy and carbon from the
      // recomputed rate and draw — integrate_tick's job_rate(), so
      // bit-identical values.
      const JobRate jr = job_rate(i, cap);
      if (completes) {
        dt = (1.0 - core_.sp_prog[j]) / jr.rate;
        core_.progress[i] = 1.0;
      } else {
        s.info.killed = true;
        ++result_.walltime_kills;
        ++pending_kills_;  // batched: flushed once per span / tick
        core_.progress[i] = core_.sp_prog[j] + jr.rate * dt;
      }
      s.info.phase = JobPhase::Done;
      s.info.finish = now_ + seconds(dt);
      core_.wall_used_s[i] = core_.sp_wall[j] + dt;
      const double job_energy_j = jr.draw_w * dt;
      core_.energy_j[i] = core_.sp_en[j] + job_energy_j;
      core_.carbon_g[i] = core_.sp_cb[j] + job_energy_j / 3.6e6 * ci;
      ev_energy_j += job_energy_j;
      ev_busy_nodes += static_cast<double>(core_.alloc_nodes[i]) * (dt / tick_s);
      any_finished = true;
      free_nodes_ += core_.alloc_nodes[i];
      core_.alloc_nodes[i] = 0;
      s.queue = Queue::None;
      s.list_pos = -1;
      result_.makespan = std::max(result_.makespan, s.info.finish);
      if (!s.info.killed) {
        ++result_.completed_jobs;
        ++pending_completions_;  // batched: flushed once per span / tick
      }
    } else {
      // Survivor: the flat-tick update (bit-identical to the one
      // integrate_tick would recompute), kept scratch-resident — the
      // columns catch up at the next scatter point; compaction keeps
      // the relative order.
      const double prog = core_.sp_prog[j] + core_.sp_rp[j];
      const double wall = core_.sp_wall[j] + tick_s;
      const double en = core_.sp_en[j] + core_.sp_ej[j];
      const double cb = core_.sp_cb[j] + core_.sp_dj[j] * ci;
      const double bn = static_cast<double>(core_.alloc_nodes[i]) * (tick_s / tick_s);
      ev_energy_j += core_.sp_ej[j];
      ev_busy_nodes += bn;
      next_energy_j += core_.sp_ej[j];
      next_busy_nodes += bn;
      core_.sp_prog[w] = prog;
      core_.sp_wall[w] = wall;
      core_.sp_en[w] = en;
      core_.sp_cb[w] = cb;
      if (w != j) {
        core_.sp_slot[w] = core_.sp_slot[j];
        core_.sp_ej[w] = core_.sp_ej[j];
        core_.sp_dj[w] = core_.sp_dj[j];
        core_.sp_rp[w] = core_.sp_rp[j];
        core_.sp_wl[w] = core_.sp_wl[j];
        s.list_pos = static_cast<std::int32_t>(w);
        running_[w] = running_[j];
        running_slots_[w] = i;
      }
      ++w;
    }
  }
  if (any_finished) {
    ++epoch_;
    bump_running_epoch();
  }
  running_.resize(w);
  running_slots_.resize(w);
  k = w;

  // End-of-tick idle term uses the post-release free count, exactly as
  // integrate_tick does.
  const double ev_idle_j = idle_w * static_cast<double>(free_nodes_) * tick_s;
  ev_energy_j += ev_idle_j;
  commit_tick(ev_energy_j, ev_idle_j, ev_busy_nodes, ci, violation);
  }
  ++n;
  ++event_ticks;

  if (running_.empty() || now_ >= hard_end) {
    // Drained, or a fault/repair/requeue event is due.
    scatter(k);
    break;
  }
  // Release-reaction fencing: continue only if the policy attests that
  // on_tick at the post-release state would take no action for the rest
  // of the attested window. This is a discrete-state-only question by
  // contract, so the stale survivor columns are not an obstacle.
  if (!sched.quiescent_over_release(*this)) {
    scatter(k);
    break;
  }
  ++rides;
  // Riding attested before the release can be invalidated by it — e.g.
  // EASY rides arrivals only with zero free nodes, and the release just
  // freed some. Re-confirm (a discrete-state-only question, same stale-
  // view terms as quiescent_over_release); when riding flips off,
  // re-bound the window by the next submission.
  if (ride_arrivals && !sched.quiescent_over_arrivals(*this)) {
    ride_arrivals = false;
    span_end = span_window(span_end, hard_end, ride_arrivals);
  }
  if (now_ >= span_end) {
    // Original window exhausted at the event: sync the columns — the
    // horizon questions may read continuous state — and try to extend
    // the span under a freshly attested horizon (a completion often
    // EXTENDS it: e.g. EASY's earliest projected end moves later when
    // the finished job leaves the release schedule).
    scatter(k);
    const Duration horizon = sched.quiescent_until(*this);
    if (horizon <= now_) break;
    ride_arrivals = next_arrival_ < arrival_order_.size() &&
                    sched.quiescent_over_arrivals(*this);
    span_end = span_window(horizon, hard_end, ride_arrivals);
    if (span_end <= now_) break;
  }

  // Incremental re-hoist: recompute the cap over the compacted running
  // set (power_cap(), as the full hoist). When it lands on exactly the
  // old cap — the common case without a power budget, where both are
  // 1.0 — every per-job scratch constant is provably unchanged (same
  // cap, same per-job state), so the whole-tick totals come straight
  // from the event pass's fused accumulators and the full gather is
  // skipped. A moved cap falls back to the full hoist at the top of the
  // loop. When the full hoist proved the cap stable across releases
  // (cap_stable), even the recompute is skipped.
  const PowerCap pc = cap_stable ? PowerCap{} : power_cap();
  if (pc.cap == cap) {
    violation = pc.violation;
    tick_energy_j = next_energy_j;
    busy_nodes_total = next_busy_nodes;
    idle_energy_j = idle_w * static_cast<double>(free_nodes_) * tick_s;
    tick_energy_j += idle_energy_j;
    full_hoist = false;
  } else {
    // Cap moved: the loop re-runs the full hoist, whose gather reads
    // the columns — bring the survivors' columns up to date first
    // (idempotent if the window-extension path already did).
    scatter(k);
  }
  }  // for (;;) — next sub-span continues over the compacted running set
  if (event_ticks > 0) span_event_ticks.add(event_ticks);
  if (rides > 0) release_rides.add(rides);
  flush_job_counters();
  return n;
}

SimulationResult Simulator::run(SchedulingPolicy& sched, PowerBudgetPolicy* power) {
  GREENHPC_REQUIRE(!ran_, "Simulator::run may be called only once");
  ran_ = true;
  GREENHPC_TRACE_SPAN("sim.run");
  static obs::Counter& ticks_counter = sim_counter("sim.ticks");
  static obs::Counter& span_ticks = sim_counter("sim.span_ticks");
  static obs::Counter& spans_counter = sim_counter("sim.spans");
  static obs::Counter& ff_ticks = sim_counter("sim.fast_forward_ticks");
  const bool fast_paths = !cfg_.reference_mode;
  while (now_ < cfg_.max_time) {
    // 1. arrivals
    while (next_arrival_ < arrival_order_.size() &&
           slots_[arrival_order_[next_arrival_]].spec->submit <= now_) {
      list_push(pending_, Queue::Pending, slots_[arrival_order_[next_arrival_]].spec->id);
      ++next_arrival_;
    }
    if (cfg_.faults.enabled()) {
      GREENHPC_TRACE_SPAN("sim.faults");
      advance_faults();
    }
    const bool all_arrived = next_arrival_ == arrival_order_.size();
    if (all_arrived && pending_.empty() && running_.empty() && suspended_.empty() &&
        requeued_.empty()) {
      break;
    }

    // Span batch kernel (gated on power == nullptr: a budget policy must
    // keep observing every tick, both for its own state and for the
    // budget series). Fault events, repairs and requeue releases bound
    // every span hard — nothing the kernel does can create or move one
    // of those.
    const bool idle = pending_.empty() && running_.empty() && suspended_.empty() &&
                      requeued_.empty() && repairs_.empty();
    if (fast_paths && power == nullptr && (idle || epoch_ == epoch_before_sched_)) {
      Duration hard_end = cfg_.max_time;
      if (next_failure_ < cfg_.faults.events.size()) {
        hard_end = std::min(hard_end, cfg_.faults.events[next_failure_].time);
      }
      for (const Duration r : repairs_) hard_end = std::min(hard_end, r);
      for (const JobId id : requeued_) {
        hard_end = std::min(hard_end, slots_[slot_index(id)].info.requeue_ready);
      }
      if (idle) {
        // Idle span: with no job anywhere, every tick up to the next
        // arrival or failure event is the pure idle-floor tick. A
        // zero-job span has no event tick and never calls the policy
        // (there is nothing to schedule); the loop re-runs arrivals and
        // faults at the first non-idle tick.
        budget_now_ = cfg_.cluster.max_power();
        GREENHPC_TRACE_SPAN("sim.fast_forward");
        ff_ticks.add(run_span(sched, hard_end, span_window(hard_end, hard_end, false),
                              /*ride_arrivals=*/false));
        continue;
      }
      // Busy span: the scheduler saw exactly this discrete state last
      // tick and did nothing (epoch check), and attests it stays
      // quiescent up to a horizon. Integrate to the horizon or the next
      // discrete event in one flat kernel; completions and walltime
      // kills are resolved inside (with release-reaction fencing).
      const Duration horizon = sched.quiescent_until(*this);
      if (horizon > now_) {
        // With a stronger attestation the span rides over arrivals:
        // they stop bounding span_end and the kernel pushes them onto
        // the pending queue at their exact ticks instead.
        const bool ride = !all_arrived && sched.quiescent_over_arrivals(*this);
        const Duration span_end = span_window(horizon, hard_end, ride);
        if (span_end > now_) {
          budget_now_ = cfg_.cluster.max_power();
          GREENHPC_TRACE_SPAN("sim.span");
          span_ticks.add(run_span(sched, hard_end, span_end, ride));
          spans_counter.add();
          continue;
        }
      }
    }

    // 2. environment + budget (policies see the observed/held intensity)
    observe_intensity();
    budget_now_ = power != nullptr
                      ? power->system_budget(now_, ci_now_, cfg_.cluster)
                      : cfg_.cluster.max_power();

    // 3. scheduling decisions
    epoch_before_sched_ = epoch_;
    {
      GREENHPC_TRACE_SPAN("sim.schedule");
      sched.on_tick(*this);
    }

    // 4+5. power capping, integration and the tick's commit
    {
      GREENHPC_TRACE_SPAN("sim.integrate");
      integrate_tick();
    }
    flush_job_counters();
    ticks_counter.add();
  }

  result_.jobs.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const JobSlot& s = slots_[i];
    JobRecord rec;
    rec.spec = *s.spec;
    rec.completed = s.info.phase == JobPhase::Done && !s.info.killed && !s.info.failed;
    rec.killed = s.info.killed;
    rec.failed = s.info.failed;
    rec.submit = s.spec->submit;
    rec.start = seconds(core_.start_s[i]);
    rec.finish = s.info.finish;
    rec.suspend_count = s.info.suspend_count;
    rec.checkpoint_count = s.info.checkpoint_count;
    rec.failure_count = s.info.failure_count;
    rec.energy = joules(core_.energy_j[i]);
    rec.carbon = grams_co2(core_.carbon_g[i]);
    result_.jobs.push_back(std::move(rec));
  }
  // system_power is each tick's energy over the tick: derived once per
  // run instead of appended beside tick_energy at every tick. Every site
  // computed it as exactly this division, so the bits and runs match.
  const double tick_s = cfg_.cluster.tick.seconds();
  for (const util::StepSeries::Run& r : result_.tick_energy.runs()) {
    result_.system_power.append_fill(r.count, r.value / tick_s);
  }
  result_.carbon_blind = !intensity_read_ && power == nullptr && cfg_.feed == nullptr;
  return std::move(result_);
}

}  // namespace greenhpc::hpcsim
