// perfbench: the workloads of the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tamper-reference]
//
// One process runs one workload on the fiber backend (one OS thread) with
// NIC contention on, as every paper figure does, and closes its output with
// one JSON line.
//
//   --trace 0  repeats the workload -- set-up, Engine::run, post-run
//              reports -- until --seconds have passed and reports the
//              medians of the end-to-end metrics.
//   --trace 1  builds the layer ledger: an untraced pass, a traced pass
//              (message count, rank-0 host spans) and ablation passes
//              (contention off, the monitored_halo tool ladder, the 1-rank
//              CG baseline, TreeMatch re-run outside the engine).
//
// All timing wraps public calls from this file; nothing in src/ is
// instrumented. Every pass's outputs are checked against a reference
// derived from --seed, and --tamper-reference perturbs that reference so
// the self-test can show the checks fail when they should.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/cg.h"
#include "apps/halo.h"
#include "apps/nas_cg.h"
#include "critpath/critpath.h"
#include "minimpi/api.h"
#include "minimpi/engine.h"
#include "mpimon/critpath_attach.h"
#include "mpimon/mpi_monitoring.h"
#include "mpit/runtime.h"
#include "obsplane/plane.h"
#include "reorder/reorder.h"
#include "support/matrix.h"
#include "support/rng.h"
#include "topo/topology.h"

extern char** environ;

namespace {

using namespace mpim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_kib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

bool close_rel(double a, double b, double rel) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

/// Independent input streams derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

/// Clears every MPIM_* knob: the scheduler backend (MPIM_SCHED), the fabric
/// (MPIM_TOPO), telemetry, stream/Prometheus export, the degradation
/// governor's budgets (which shed monitoring work), the watchdog and the
/// logger all change what a run does or costs.
void pin_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MPIM_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                         : std::strlen(*e));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

/// PlaFRIM-like cluster, 24 cores per node, with the figure benches'
/// contention model (port wire rate twice the single-flow bandwidth).
mpi::EngineConfig cluster(int nodes, int ranks, bool random_mapping,
                          std::uint64_t mapping_seed) {
  auto cost = net::CostModel::plafrim_like(nodes);
  topo::Placement placement =
      random_mapping
          ? topo::random_placement(ranks, cost.topology(), mapping_seed)
          : topo::round_robin_placement(ranks, cost.topology());
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.nic_contention = true;
  cfg.nic_port_beta_scale = 2.0;
  cfg.sched = mpi::SchedMode::fibers;
  cfg.watchdog_wall_timeout_s = 60.0;
  return cfg;
}

// --- passes -------------------------------------------------------------------

/// monitored_halo's tool layers in stack order; the ablation ladder turns
/// them on one at a time. The other workloads attach no tools.
enum Tool : unsigned {
  kToolSessions = 1u << 0,  ///< 4 overlapping sessions (mpit record path)
  kToolSnapshot = 1u << 1,  ///< windowed snapshot on one session (introspect)
  kToolCritpath = 1u << 2,  ///< mon::attach_critpath
  kToolObsplane = 1u << 3,  ///< obsplane::Plane::attach
  kToolTelemetry = 1u << 4,  ///< engine telemetry enabled
  kToolGathers = 1u << 5,   ///< periodic suspend/allgather/continue (mpimon)
  kAllTools = (1u << 6) - 1,
};
constexpr int kLadderRungs = 6;  // bare, then +each per-packet layer
const char* const kLadderMetric[kLadderRungs] = {
    nullptr,
    "mpit.record_ns_per_msg",
    "introspect.snapshot_ns_per_msg",
    "critpath.hook_ns_per_msg",
    "obsplane.hook_ns_per_msg",
    "telemetry.ns_per_msg"};

struct Pass {
  bool contention = true;
  bool trace = false;  ///< count application packets, take rank-0 spans
  unsigned tools = kAllTools;
  bool run = true;  ///< false: set up and tear down only
  /// Checks that compare virtual clocks apply to the measured
  /// configuration only (ablations change the clocks by design).
  bool measured() const { return contention && tools == kAllTools; }
};

/// What one pass (set-up, run, post-run reports) produced.
struct Rep {
  Pass pass;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double engine_ctor_s = 0.0;
  double runtime_ctor_s = 0.0;
  double vclock_s = 0.0;        ///< highest virtual clock of the run
  std::uint64_t messages = 0;   ///< application packets (trace passes)
  std::uint64_t nic_tx_bytes = 0;
  long mon_calls = 0;           ///< MPI_M_* calls made by this file
  long mon_failures = 0;        ///< ... that did not return MPI_M_SUCCESS
  std::map<std::string, double> out;  ///< workload outputs, spans, counts
  std::vector<std::string> errors;    ///< failed output checks

  void require(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  double at(const std::string& key) const {
    const auto it = out.find(key);
    return it == out.end() ? std::nan("") : it->second;
  }
};

/// Counts one MPI_M_* call of the pass. Rank fibers share one OS thread,
/// so the plain increments are safe.
int mon(Rep& rep, int rc) {
  ++rep.mon_calls;
  if (rc != MPI_M_SUCCESS) ++rep.mon_failures;
  return rc;
}

/// Adds the host seconds of its scope to rep.out[name] when armed (trace
/// passes, world rank 0). On fibers ranks run in (virtual clock, rank)
/// order, so a rank-0 span around a collective phase bounds the whole
/// world's host time in that phase: a phase time, not a self time.
class Span {
 public:
  Span(bool armed, Rep& rep, const char* name)
      : rep_(armed ? &rep : nullptr), name_(name), t0_(Clock::now()) {}
  ~Span() {
    if (rep_ != nullptr) rep_->out[name_] += seconds_since(t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Rep* rep_;
  const char* name_;
  Clock::time_point t0_;
};

class Workload {
 public:
  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual mpi::EngineConfig config() const = 0;
  /// Application packets one measured pass sends: fixed per workload and
  /// independent of the seed (the traced pass checks it). us_per_msg uses
  /// it so the untraced runs need no per-packet counting.
  virtual std::uint64_t messages() const = 0;
  virtual void attach(mpi::Engine&, const Pass&, Rep&) {}
  virtual void rank_main(mpi::Ctx& ctx, const Pass& pass, Rep& rep) = 0;
  virtual void post_run(mpi::Engine&, const Pass&, Rep&) {}
  /// Computes the seed's reference outputs, perturbed when `tamper`.
  /// Returns the reference pass when one ran (for failure accounting).
  virtual std::vector<Rep> make_reference(bool tamper) = 0;
  /// Output checks of `rep` against the reference and the run's first
  /// measured pass (`first` may be `rep` itself).
  virtual void check(Rep& rep, const Rep& first) const = 0;
  /// Workload-specific ledger entries and passes (trace runs); returns
  /// the extra passes it made.
  virtual std::vector<Rep> ledger(std::map<std::string, double>& ledger,
                                  const Rep& traced) = 0;

 protected:
  std::uint64_t seed_;
};

Rep run_pass(Workload& w, const Pass& pass) {
  Rep rep;
  rep.pass = pass;
  mpi::EngineConfig cfg = w.config();
  cfg.nic_contention = pass.contention;
  std::uint64_t packets = 0;
  const auto t0 = Clock::now();
  mpi::Engine engine(std::move(cfg));
  rep.engine_ctor_s = seconds_since(t0);
  const auto t1 = Clock::now();
  mpit::Runtime tool(engine);
  rep.runtime_ctor_s = seconds_since(t1);
  if (pass.trace)
    tool.add_event_listener([&packets](const mpi::PktInfo&) { ++packets; });
  w.attach(engine, pass, rep);
  rep.setup_s = seconds_since(t0);

  if (!pass.run) return rep;
  const auto t2 = Clock::now();
  try {
    engine.run([&](mpi::Ctx& ctx) { w.rank_main(ctx, pass, rep); });
    w.post_run(engine, pass, rep);
  } catch (const std::exception& e) {
    rep.errors.push_back(std::string("run threw: ") + e.what());
  }
  rep.wall_s = seconds_since(t2);
  rep.require(engine.sched_mode() == mpi::SchedMode::fibers,
              "run did not use the fiber backend");
  rep.vclock_s = engine.max_virtual_time();
  rep.messages = packets;
  for (int n = 0; n < engine.nic().num_nodes(); ++n)
    rep.nic_tx_bytes += engine.nic().total_bytes(n);
  return rep;
}

// --- cg_reorder -----------------------------------------------------------------

/// Relative tolerance on cg_reorder's final virtual clock across passes.
/// Not exact because reorder.cpp charges TreeMatch's host thread-CPU time
/// to rank 0's clock (ROADMAP open item "End-to-end determinism and
/// cross-layer oracles"); once that charge is a deterministic cost model,
/// this becomes exact equality. The plain half of the run never reorders
/// and is compared exactly.
constexpr double kCgClockTol = 1e-2;
/// Plain vs reordered residual (same arithmetic on a permuted grid).
constexpr double kCgResidTol = 1e-9;
/// 64-rank vs 1-rank residual: dot-product summation order differs.
constexpr double kCgRefTol = 1e-9;

class CgReorder final : public Workload {
 public:
  static constexpr int kRanks = 64;
  static constexpr int kNodes = 3;

  CgReorder(std::uint64_t seed, int ranks = kRanks)
      : Workload(seed), ranks_(ranks), cg_(apps::cg_class('A')) {
    cg_.seed = derive_seed(seed, 2);  // right-hand side
  }

  mpi::EngineConfig config() const override {
    // The 1-rank world is the single-process baseline and the reference.
    mpi::EngineConfig cfg =
        ranks_ == 1 ? cluster(1, 1, false, 0)
                    : cluster(kNodes, ranks_, true, derive_seed(seed_, 1));
    // NAS CG's SpMV gathers through an index vector: ~4x the per-flop
    // cost of a regular stencil, as in bench_fig7_cg.
    cfg.flop_time_s = 2.0e-9;
    return cfg;
  }

  std::uint64_t messages() const override { return 322031; }

  void rank_main(mpi::Ctx& ctx, const Pass& pass, Rep& rep) override {
    const mpi::Comm world = ctx.world();
    const bool root = ctx.world_rank() == 0;
    const bool spans = pass.trace && root;

    // Plain run: the init iteration and the solve.
    apps::NasCgSolver plain(world, cg_);
    plain.iteration();
    apps::CgResult base;
    {
      Span s(spans, rep, "apps.plain_solve_s");
      base = plain.solve();
    }

    // Reordered run: monitor the init iteration, reorder with TreeMatch,
    // re-set-up on the optimized communicator and solve.
    mon(rep, MPI_M_init());
    apps::NasCgSolver init(world, cg_);
    reorder::ReorderResult res;
    {
      Span s(spans, rep, "reorder.step_s");
      res = reorder::monitor_and_reorder(
          world, [&](const mpi::Comm&) { init.iteration(); });
    }
    apps::NasCgSolver opt(res.opt_comm, cg_);
    apps::CgResult better;
    {
      Span s(spans, rep, "apps.opt_solve_s");
      better = opt.solve();
    }
    mon(rep, MPI_M_finalize());

    // Fig. 7b: rank-0 time in MPI calls, plain (world rank 0) over
    // reordered (rank 0 of the optimized communicator).
    const double comm[2] = {
        root ? base.comm_time_s : 0.0,
        mpi::comm_rank(res.opt_comm) == 0 ? better.comm_time_s : 0.0};
    double comm_max[2] = {0.0, 0.0};
    mpi::allreduce(comm, comm_max, 2, mpi::Type::Double, mpi::Op::Max, world);
    if (root) {
      rep.out["resid_plain"] = base.residual_norm2;
      rep.out["resid_opt"] = better.residual_norm2;
      rep.out["plain_vtime_s"] = base.total_time_s;
      rep.out["plain_comm_s"] = comm_max[0];
      rep.out["opt_comm_s"] = comm_max[1];
      rep.out["comm_ratio"] =
          comm_max[1] > 0.0 ? comm_max[0] / comm_max[1] : 0.0;
      rep.out["fell_back"] = res.fell_back ? 1.0 : 0.0;
    }
  }

  std::vector<Rep> make_reference(bool tamper) override {
    CgReorder one(seed_, 1);
    Rep r = run_pass(one, Pass{});
    ref_resid_ = r.at("resid_plain") * (tamper ? 1.0 + 1e-6 : 1.0);
    np1_wall_s_ = r.wall_s;
    r.require(std::isfinite(ref_resid_) && ref_resid_ > 0.0,
              "1-rank reference solve produced no residual");
    return {r};
  }

  void check(Rep& rep, const Rep& first) const override {
    const double plain = rep.at("resid_plain");
    const double opt = rep.at("resid_opt");
    rep.require(close_rel(plain, opt, kCgResidTol),
                "plain and reordered residuals differ");
    rep.require(close_rel(plain, ref_resid_, kCgRefTol),
                "residual does not match the 1-rank reference");
    rep.require(rep.at("fell_back") == 0.0,
                "reordering fell back to the identity");
    if (!rep.pass.contention) return;
    rep.require(rep.at("plain_vtime_s") == first.at("plain_vtime_s"),
                "plain-run virtual time is not bit-identical across passes");
    rep.require(close_rel(rep.vclock_s, first.vclock_s, kCgClockTol),
                "final virtual clock moved beyond the TreeMatch tolerance");
  }

  std::vector<Rep> ledger(std::map<std::string, double>& L,
                          const Rep& traced) override {
    L["apps.cg_np1_s"] = np1_wall_s_;
    L["comm_ratio"] = traced.at("comm_ratio");
    std::printf("comm_ratio base: rank-0 MPI time %.6g s plain, %.6g s "
                "reordered (virtual)\n",
                traced.at("plain_comm_s"), traced.at("opt_comm_s"));
    L["mpimon.gathers"] = 1;  // monitor_and_reorder's root gather
    L["mpimon.gather_bytes"] = 2.0 * kRanks * kRanks * sizeof(unsigned long);

    // Re-capture the matrix the reorder step sees (the monitored init
    // iteration, root-gathered), then time TreeMatch outside the engine.
    Rep m;
    CommMatrix bytes = CommMatrix::square(kRanks);
    mpi::Engine engine(config());
    mpit::Runtime tool(engine);
    try {
      engine.run([&](mpi::Ctx& ctx) {
        const mpi::Comm world = ctx.world();
        const bool root = ctx.world_rank() == 0;
        mon(m, MPI_M_init());
        MPI_M_msid id = -1;
        mon(m, MPI_M_start(world, &id));
        apps::NasCgSolver init(world, cg_);
        init.iteration();
        {
          Span s(root, m, "mpimon.gather_s");
          mon(m, MPI_M_suspend(id));
          mon(m, MPI_M_rootgather_data(id, 0, MPI_M_DATA_IGNORE,
                                       root ? bytes.flat().data() : nullptr,
                                       MPI_M_ALL_COMM));
        }
        mon(m, MPI_M_free(id));
        mon(m, MPI_M_finalize());
      });
    } catch (const std::exception& e) {
      m.errors.push_back(std::string("matrix capture threw: ") + e.what());
    }
    L["mpimon.gather_s"] = m.at("mpimon.gather_s");

    const topo::Placement& placement = engine.config().placement;
    std::vector<double> decide;
    std::vector<int> k;
    for (int i = 0; i < 15; ++i) {
      const auto t0 = Clock::now();
      k = reorder::compute_reordering(bytes, engine.topology(), placement,
                                      &engine.cost_model());
      decide.push_back(seconds_since(t0));
    }
    L["treematch.decide_s"] = median(decide);
    const double before = reorder::reordered_cost(
        bytes, reorder::identity_k(kRanks), engine.cost_model(), placement);
    const double after =
        reorder::reordered_cost(bytes, k, engine.cost_model(), placement);
    m.require(before > 0.0, "captured matrix is empty");
    L["reorder.mapping_cost_ratio"] = before > 0.0 ? after / before : 0.0;
    std::printf("reorder.mapping_cost_ratio base: modeled cost %.6g s "
                "identity, %.6g s reordered\n",
                before, after);
    return {m};
  }

 private:
  int ranks_;
  apps::CgConfig cg_;
  double ref_resid_ = std::nan("");
  double np1_wall_s_ = 0.0;
};

// --- ring_allreduce_np4096 ---------------------------------------------------------

/// Final virtual clock of ring_allreduce_np4096 (contention on). Clocks are
/// independent of the payload, so every seed must reproduce it bit for bit.
constexpr double kRingClock = 0x1.b2e3581114dedp-16;

class RingAllreduce final : public Workload {
 public:
  static constexpr int kRanks = 4096;
  static constexpr int kNodes = 171;  // 24 ranks per node
  static constexpr int kRounds = 10;
  static constexpr std::size_t kBytes = 1024;

  explicit RingAllreduce(std::uint64_t seed) : Workload(seed) {}

  mpi::EngineConfig config() const override {
    return cluster(kNodes, kRanks, false, 0);
  }
  std::uint64_t messages() const override { return 90112; }

  void rank_main(mpi::Ctx& ctx, const Pass&, Rep& rep) override {
    const mpi::Comm world = ctx.world();
    const int n = mpi::comm_size(world);
    const int me = mpi::comm_rank(world);
    std::vector<char> token = make_token(me), in(kBytes);
    for (int it = 0; it < kRounds; ++it) {
      mpi::sendrecv(token.data(), kBytes, mpi::Type::Char, (me + 1) % n, it,
                    in.data(), kBytes, (me + n - 1) % n, it, world);
      token.swap(in);
    }
    // After kRounds shifts each rank holds the token of rank me - kRounds.
    if (token != make_token(((me - kRounds) % n + n) % n))
      rep.out["bad_tokens"] += 1;
    long v = 1, sum = 0;
    mpi::allreduce(&v, &sum, 1, mpi::Type::Long, mpi::Op::Sum, world);
    if (sum != n) rep.out["bad_sums"] += 1;
  }

  std::vector<Rep> make_reference(bool tamper) override {
    ref_clock_ = tamper ? std::nextafter(kRingClock, 1.0) : kRingClock;
    return {};
  }

  void check(Rep& rep, const Rep& first) const override {
    rep.require(rep.out.count("bad_tokens") == 0,
                "ring tokens arrived corrupted or out of order");
    rep.require(rep.out.count("bad_sums") == 0,
                "allreduce sum differs from the world size");
    if (!rep.pass.contention) return;
    rep.require(rep.vclock_s == first.vclock_s,
                "final virtual clock is not bit-identical across passes");
    rep.require(rep.vclock_s == ref_clock_,
                "final virtual clock differs from the reference");
  }

  std::vector<Rep> ledger(std::map<std::string, double>&,
                          const Rep&) override {
    return {};
  }

 private:
  /// Seeded payload of rank r's token.
  std::vector<char> make_token(int r) const {
    Rng rng(derive_seed(seed_, 4) + static_cast<std::uint64_t>(r));
    std::vector<char> t(kBytes);
    for (char& c : t) c = static_cast<char>(rng() >> 56);
    return t;
  }

  double ref_clock_ = std::nan("");
};

// --- monitored_halo ------------------------------------------------------------------

constexpr double kHaloChecksumTol = 1e-9;

class MonitoredHalo final : public Workload {
 public:
  static constexpr int kRanks = 256;
  static constexpr int kNodes = 11;
  static constexpr int kLocalN = 64;  ///< local block kLocalN^2 doubles
  static constexpr int kChunkIters = 25;  ///< Jacobi sweeps between gathers
  static constexpr int kNumGathers = 4;
  static constexpr int kNumSessions = 4;
  static constexpr double kWindowS = 1e-4;  ///< snapshot window / epoch

  explicit MonitoredHalo(std::uint64_t seed) : Workload(seed) {}

  mpi::EngineConfig config() const override {
    return cluster(kNodes, kRanks, true, derive_seed(seed_, 1));
  }
  std::uint64_t messages() const override { return 104192; }

  void attach(mpi::Engine& engine, const Pass& pass, Rep& rep) override {
    if (pass.tools & kToolCritpath) {
      const auto t0 = Clock::now();
      mon::attach_critpath(engine);
      rep.out["critpath.attach_s"] = seconds_since(t0);
    }
    if (pass.tools & kToolObsplane) {
      const auto t0 = Clock::now();
      obsplane::PlaneConfig cfg;
      cfg.epoch_s = kWindowS;
      obsplane::Plane::attach(engine, cfg);
      rep.out["obsplane.attach_s"] = seconds_since(t0);
    }
    if (pass.tools & kToolTelemetry) engine.telemetry().set_enabled(true);
  }

  void rank_main(mpi::Ctx& ctx, const Pass& pass, Rep& rep) override {
    const mpi::Comm world = ctx.world();
    const int n = mpi::comm_size(world);
    const bool root = ctx.world_rank() == 0;
    const bool sessions = pass.tools & kToolSessions;
    const bool snapshot = sessions && (pass.tools & kToolSnapshot);
    const bool gathers = sessions && (pass.tools & kToolGathers);

    MPI_M_msid ids[kNumSessions] = {-1, -1, -1, -1};
    if (sessions) {
      // Two sessions on the world and two on a duplicate: overlapping
      // sessions over two accumulator blocks.
      const mpi::Comm dup = mpi::comm_dup(world);
      mon(rep, MPI_M_init());
      for (int s = 0; s < kNumSessions; ++s)
        mon(rep, MPI_M_start(s < 2 ? world : dup, &ids[s]));
      if (snapshot)
        mon(rep, MPI_M_snapshot_start(ids[0], kWindowS, 1024,
                                      MPI_M_ALL_COMM));
    }
    double checksum = 0.0;
    for (int g = 0; g < kNumGathers; ++g) {
      apps::HaloConfig hc;
      hc.local_n = kLocalN;
      hc.iters = kChunkIters;
      hc.seed = chunk_seed(g);
      checksum += apps::run_halo(world, hc).checksum;
      if (!gathers) continue;
      Span s(pass.trace && root, rep, "mpimon.gather_s");
      std::vector<unsigned long> counts(static_cast<std::size_t>(n) * n),
          sizes(counts.size());
      mon(rep, MPI_M_suspend(ids[0]));
      mon(rep, MPI_M_allgather_data(ids[0], counts.data(), sizes.data(),
                                    MPI_M_ALL_COMM));
      mon(rep, MPI_M_continue(ids[0]));
      if (root) rep.out["mpimon.gathers"] += 1;
    }
    if (sessions) {
      for (MPI_M_msid id : ids) mon(rep, MPI_M_suspend(id));
      if (snapshot) {
        int frames = 0;
        mon(rep, MPI_M_snapshot_info(ids[0], &frames, MPI_M_INT_IGNORE,
                                     MPI_M_INT_IGNORE));
        rep.out["introspect.frames"] += frames;
      }
      for (MPI_M_msid id : ids) mon(rep, MPI_M_free(id));
      mon(rep, MPI_M_finalize());
    }
    if (root) rep.out["checksum"] = checksum;
  }

  void post_run(mpi::Engine& engine, const Pass&, Rep& rep) override {
    if (critpath::Profiler* prof = critpath::Profiler::attached(engine)) {
      const critpath::BlameReport& report = prof->report();
      std::uint64_t blame = 0, events = 0, dropped = 0;
      for (const critpath::RankBlame& r : report.ranks) blame += r.blame_ns;
      for (int r = 0; r < engine.world_size(); ++r) {
        const auto totals = prof->local_totals(r);
        events += totals.events;
        dropped += totals.dropped;
      }
      rep.require(report.valid && blame == report.total_comm_ns,
                  "critpath blame does not sum to the communication time");
      rep.out["critpath.events"] = static_cast<double>(events);
      rep.out["critpath.events_dropped"] = static_cast<double>(dropped);
      rep.out["critpath.extract_s"] = prof->extract_host_seconds();
    }
    if (obsplane::Plane* plane = obsplane::Plane::attached(engine)) {
      const std::uint64_t attempted = plane->events_attempted();
      rep.require(
          attempted == plane->events_ingested() + plane->events_dropped(),
          "obsplane attempted != ingested + dropped");
      rep.out["obsplane.events_attempted"] = static_cast<double>(attempted);
      rep.out["obsplane.ingest_ratio"] =
          attempted > 0 ? static_cast<double>(plane->events_ingested()) /
                              static_cast<double>(attempted)
                        : 0.0;
      std::ostringstream prom;
      const auto t0 = Clock::now();
      plane->write_prometheus(prom);
      rep.out["obsplane.prom_export_s"] = seconds_since(t0);
      rep.require(!prom.str().empty(), "Prometheus export is empty");
    }
  }

  std::vector<Rep> make_reference(bool tamper) override {
    // Serial Jacobi on the assembled global grid: run_halo's blocks with
    // zero halos at the domain edge are exactly one global sweep.
    int pr = 0, pc = 0;
    apps::cg_process_grid(kRanks, &pr, &pc);
    const std::size_t rows = static_cast<std::size_t>(pr) * kLocalN;
    const std::size_t cols = static_cast<std::size_t>(pc) * kLocalN;
    std::vector<double> grid(rows * cols), next(rows * cols);
    double total = 0.0;
    for (int g = 0; g < kNumGathers; ++g) {
      for (int r = 0; r < kRanks; ++r) {
        Rng rng(chunk_seed(g) + static_cast<unsigned long>(r));
        const std::size_t i0 = static_cast<std::size_t>(r / pc) * kLocalN;
        const std::size_t j0 = static_cast<std::size_t>(r % pc) * kLocalN;
        for (std::size_t i = 0; i < kLocalN; ++i)
          for (std::size_t j = 0; j < kLocalN; ++j)
            grid[(i0 + i) * cols + j0 + j] = rng.uniform();
      }
      for (int it = 0; it < kChunkIters; ++it) {
        for (std::size_t i = 0; i < rows; ++i) {
          for (std::size_t j = 0; j < cols; ++j) {
            const double up = i > 0 ? grid[(i - 1) * cols + j] : 0.0;
            const double down = i + 1 < rows ? grid[(i + 1) * cols + j] : 0.0;
            const double left = j > 0 ? grid[i * cols + j - 1] : 0.0;
            const double right = j + 1 < cols ? grid[i * cols + j + 1] : 0.0;
            next[i * cols + j] = 0.25 * (up + down + left + right);
          }
        }
        grid.swap(next);
      }
      for (double v : grid) total += v;
    }
    ref_checksum_ = total * (tamper ? 1.0 + 1e-6 : 1.0);
    return {};
  }

  void check(Rep& rep, const Rep& first) const override {
    rep.require(close_rel(rep.at("checksum"), ref_checksum_, kHaloChecksumTol),
                "halo checksum does not match the serial reference");
    if (!rep.pass.measured()) return;
    rep.require(rep.vclock_s == first.vclock_s,
                "final virtual clock is not bit-identical across passes");
    rep.require(rep.at("mpimon.gathers") == kNumGathers,
                "not every periodic gather ran");
  }

  std::vector<Rep> ledger(std::map<std::string, double>& L,
                          const Rep& traced) override {
    L["mpimon.gathers"] = traced.at("mpimon.gathers");
    L["mpimon.gather_bytes"] = static_cast<double>(kNumGathers) * kRanks * 2 *
                               kRanks * sizeof(unsigned long);
    // Ablation ladder: bare, then each per-packet layer on top, in stack
    // order; the periodic gathers stay off (mpimon.gather_s covers them).
    // Interleaved rounds, median per rung: a rung adds ~0.1 s to a ~1 s
    // pass, so one round would be within host noise.
    constexpr int kRounds = 3;
    std::vector<Rep> passes;
    std::vector<std::vector<double>> walls(kLadderRungs);
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kLadderRungs; ++i) {
        Pass p;
        p.tools = (1u << i) - 1;
        passes.push_back(run_pass(*this, p));
        walls[static_cast<std::size_t>(i)].push_back(passes.back().wall_s);
      }
    }
    std::vector<double> rung;
    for (int i = 0; i < kLadderRungs; ++i) {
      rung.push_back(median(walls[static_cast<std::size_t>(i)]));
      std::printf("ladder rung %d (tools 0x%x): median wall %.6g s\n", i,
                  (1u << i) - 1, rung.back());
    }
    const double msgs = static_cast<double>(traced.messages);
    L["bench.bare_wall_s"] = rung[0];
    for (std::size_t i = 1; i < rung.size(); ++i)
      L[kLadderMetric[i]] =
          msgs > 0 ? (rung[i] - rung[i - 1]) * 1e9 / msgs : 0.0;
    return passes;
  }

 private:
  std::uint64_t chunk_seed(int g) const {
    return derive_seed(derive_seed(seed_, 3), static_cast<std::uint64_t>(g));
  }

  double ref_checksum_ = std::nan("");
};

// --- reporting -------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Per-layer metrics of the traced run, in BENCHMARK.json order. A layer
/// the workload bypasses reads 0.
const MetricDef kLayerMetrics[] = {
    {"minimpi.messages", "count"},
    {"minimpi.gate_s", "s"},
    {"minimpi.transport_us_per_msg", "us"},
    {"minimpi.engine_ctor_s", "s"},
    {"minimpi.rss_kib_per_rank", "KiB"},
    {"apps.cg_np1_s", "s"},
    {"apps.plain_solve_s", "s"},
    {"apps.opt_solve_s", "s"},
    {"reorder.step_s", "s"},
    {"treematch.decide_s", "s"},
    {"reorder.mapping_cost_ratio", "ratio"},
    {"comm_ratio", "ratio"},
    {"mpimon.gather_s", "s"},
    {"mpimon.gathers", "count"},
    {"mpimon.gather_bytes", "B"},
    {"mpit.record_ns_per_msg", "ns"},
    {"introspect.snapshot_ns_per_msg", "ns"},
    {"critpath.hook_ns_per_msg", "ns"},
    {"obsplane.hook_ns_per_msg", "ns"},
    {"telemetry.ns_per_msg", "ns"},
    {"critpath.events", "count"},
    {"critpath.events_dropped", "count"},
    {"critpath.extract_s", "s"},
    {"obsplane.events_attempted", "count"},
    {"obsplane.ingest_ratio", "ratio"},
    {"obsplane.prom_export_s", "s"},
    {"introspect.frames", "count"},
    {"netmodel.nic_tx_bytes", "B"},
    {"mpit.runtime_ctor_s", "s"},
    {"critpath.attach_s", "s"},
    {"obsplane.attach_s", "s"},
    {"bench.untraced_wall_s", "s"},
    {"bench.traced_wall_s", "s"},
    {"bench.trace_overhead_s", "s"},
    {"bench.bare_wall_s", "s"},
};

struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  /// A pass is one operation, failed when it threw or failed a check;
  /// every MPI_M_* call it made is one more.
  void add(const Rep& rep, const std::string& label) {
    attempted += 1 + rep.mon_calls;
    failed += rep.mon_failures + (rep.errors.empty() ? 0 : 1);
    for (const std::string& e : rep.errors) failures.push_back(label + ": " + e);
    if (rep.mon_failures > 0)
      failures.push_back(label + ": " + std::to_string(rep.mon_failures) +
                         " MPI_M_* calls failed");
  }
};

void print_result(const Tally& tally,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  for (const auto& [def, value] : metrics)
    std::printf("%-34s %.6g %s\n", def.name, value, def.unit);
  for (const std::string& f : tally.failures)
    std::printf("CHECK FAILED %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  bool first = true;
  for (const auto& [def, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name, std::isfinite(value) ? value : 0.0,
                def.unit);
    first = false;
  }
  std::printf("}}\n");
}

constexpr int kSetupSamplesPerPass = 6;

/// Human-readable spread of a timing: sample count, extremes, quartiles.
void describe(const char* name, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  std::printf("%s samples %zu: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n",
              name, v.size(), v.front(), at(0.25), median(v), at(0.75),
              v.back());
}

int run_untraced(Workload& w, double seconds, bool tamper) {
  Tally tally;
  // The first pass of a process pays allocator growth and first-touch
  // page faults that later passes do not: it is checked but not timed.
  std::vector<Rep> reps{run_pass(w, Pass{})};
  // Set-up takes milliseconds against a pass's seconds, and this host's
  // speed shifts within seconds: set-up-only samples after every pass give
  // its median enough samples, spread over the run like the passes.
  Pass setup_only;
  setup_only.run = false;
  std::vector<double> setup, wall, comm_ratio;
  const auto start = Clock::now();
  do {
    reps.push_back(run_pass(w, Pass{}));
    for (int i = 0; i < kSetupSamplesPerPass; ++i)
      setup.push_back(run_pass(w, setup_only).setup_s);
  } while (seconds_since(start) < seconds);
  for (const Rep& r : w.make_reference(tamper)) tally.add(r, "reference");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    w.check(reps[i], reps.front());
    tally.add(reps[i], "pass " + std::to_string(i));
    if (reps[i].out.count("comm_ratio") != 0)
      comm_ratio.push_back(reps[i].at("comm_ratio"));
    if (i == 0) continue;
    setup.push_back(reps[i].setup_s);
    wall.push_back(reps[i].wall_s);
  }
  describe("setup_s", setup);
  describe("wall_s", wall);
  const double wall_s = median(wall);
  const double failed_frac =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::printf("timed passes %zu in %.3f s on the %s backend, final virtual "
              "clock %a s\n",
              wall.size(), seconds_since(start),
              mpi::sched_mode_name(mpi::SchedMode::fibers),
              reps.front().vclock_s);
  std::printf("failed_frac %.6g (%ld of %ld operations)\n", failed_frac,
              tally.failed, tally.attempted);
  std::printf("us_per_msg base: %llu application messages per pass (fixed "
              "per workload, counted by the traced run)\n",
              static_cast<unsigned long long>(w.messages()));
  if (!comm_ratio.empty())
    std::printf("comm_ratio %.6g (median; Fig. 7b, plain over reordered "
                "rank-0 MPI time)\n",
                median(comm_ratio));
  print_result(tally,
               {{{"setup_s", "s"}, median(setup)},
                {{"wall_s", "s"}, wall_s},
                {{"us_per_msg", "us"},
                 wall_s * 1e6 / static_cast<double>(w.messages())},
                {{"peak_rss_mib", "MiB"}, peak_rss_kib() / 1024.0}});
  return tally.failed == 0 ? 0 : 1;
}

int run_traced(Workload& w, int ranks, bool tamper) {
  Tally tally;
  std::map<std::string, double> L;
  for (const MetricDef& m : kLayerMetrics) L[m.name] = 0.0;

  // Warm-up pass first, as in run_untraced; it also sizes the per-rank
  // resident memory, before any other pass has raised the peak.
  const double rss0 = peak_rss_kib();
  Rep warm = run_pass(w, Pass{});
  L["minimpi.rss_kib_per_rank"] = (peak_rss_kib() - rss0) / ranks;
  Rep u = run_pass(w, Pass{});
  Rep t = run_pass(w, Pass{.trace = true});
  Pass off_pass;
  off_pass.contention = false;
  off_pass.tools = 0;
  Rep off = run_pass(w, off_pass);

  std::vector<Rep> extra = w.make_reference(tamper);
  std::vector<Rep> ledger_passes = w.ledger(L, t);
  // The contention-on, tools-off pass: the ladder's bare rung where the
  // workload has tools (its ledger set it), the untraced pass otherwise.
  if (L["bench.bare_wall_s"] == 0.0) L["bench.bare_wall_s"] = u.wall_s;
  const double bare_on = L["bench.bare_wall_s"];

  w.check(warm, warm);
  w.check(u, warm);
  w.check(t, warm);
  w.check(off, warm);
  t.require(t.messages == w.messages(),
            "traced pass sent " + std::to_string(t.messages) +
                " application messages, expected " +
                std::to_string(w.messages()));
  tally.add(warm, "warm-up pass");
  tally.add(u, "untraced pass");
  tally.add(t, "traced pass");
  tally.add(off, "contention-off pass");
  for (const Rep& r : extra) tally.add(r, "reference");
  for (const Rep& r : ledger_passes) tally.add(r, "ledger pass");

  const double msgs = static_cast<double>(t.messages);
  L["minimpi.messages"] = msgs;
  L["minimpi.gate_s"] = bare_on - off.wall_s;
  L["minimpi.transport_us_per_msg"] = msgs > 0 ? off.wall_s * 1e6 / msgs : 0.0;
  L["minimpi.engine_ctor_s"] = u.engine_ctor_s;
  L["mpit.runtime_ctor_s"] = u.runtime_ctor_s;
  L["netmodel.nic_tx_bytes"] = static_cast<double>(t.nic_tx_bytes);
  L["bench.untraced_wall_s"] = u.wall_s;
  L["bench.traced_wall_s"] = t.wall_s;
  L["bench.trace_overhead_s"] = t.wall_s - u.wall_s;
  for (const char* key :
       {"apps.plain_solve_s", "apps.opt_solve_s", "reorder.step_s",
        "critpath.events", "critpath.events_dropped", "critpath.extract_s",
        "obsplane.events_attempted", "obsplane.ingest_ratio",
        "obsplane.prom_export_s", "introspect.frames", "critpath.attach_s",
        "obsplane.attach_s", "mpimon.gather_s"})
    if (t.out.count(key) != 0) L[key] = t.at(key);

  std::vector<std::pair<MetricDef, double>> metrics;
  for (const MetricDef& m : kLayerMetrics) metrics.push_back({m, L[m.name]});
  std::printf("final virtual clock %a s; %d ranks; failed_frac %.6g (%ld "
              "of %ld operations)\n",
              warm.vclock_s, ranks,
              static_cast<double>(tally.failed) /
                  static_cast<double>(tally.attempted),
              tally.failed, tally.attempted);
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload cg_reorder|ring_allreduce_np4096|"
               "monitored_halo --seed <n> --seconds <s> --trace <0|1> "
               "[--tamper-reference]\n",
               prog);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tamper = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--tamper-reference") {
      tamper = true;
    } else {
      usage(argv[0]);
    }
  }
  if (!(seconds >= 0.0) || (trace != 0 && trace != 1)) usage(argv[0]);

  std::unique_ptr<Workload> w;
  int ranks = 0;
  if (workload == "cg_reorder") {
    w = std::make_unique<CgReorder>(seed);
    ranks = CgReorder::kRanks;
  } else if (workload == "ring_allreduce_np4096") {
    w = std::make_unique<RingAllreduce>(seed);
    ranks = RingAllreduce::kRanks;
  } else if (workload == "monitored_halo") {
    w = std::make_unique<MonitoredHalo>(seed);
    ranks = MonitoredHalo::kRanks;
  } else {
    usage(argv[0]);
  }
  std::printf("workload %s seed %llu trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), trace);
  std::fflush(stdout);
  return trace ? run_traced(*w, ranks, tamper)
               : run_untraced(*w, seconds, tamper);
}
