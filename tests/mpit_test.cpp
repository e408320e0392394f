#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "minimpi/api.h"
#include "mpimon/sim.h"
#include "mpit/pvar.h"
#include "mpit/runtime.h"

namespace mpim::mpit {
namespace {

using mpi::Comm;
using mpi::Ctx;
using mpi::Type;
using telemetry::Metric;

mpi::EngineConfig make_cfg(int nranks) {
  topo::Topology t({2, 1, 2}, {"node", "socket", "core"});
  std::vector<net::LinkParams> params = {
      {1e-5, 1e8}, {1e-6, 1e9}, {1e-7, 1e10}, {0.0, 1e12}};
  net::CostModel cost(t, params, 1e-7);
  mpi::EngineConfig cfg{.cost_model = cost,
                        .placement = topo::round_robin_placement(nranks, t)};
  cfg.watchdog_wall_timeout_s = 3.0;
  return cfg;
}

Sim make_sim(int nranks = 4) { return Sim(make_cfg(nranks)); }

TEST(Pvar, RegistryExposesMonitoringVariables) {
  EXPECT_EQ(pvar_get_num(), 56);
  EXPECT_EQ(pvar_index_by_name("pml_monitoring_messages_count"), 0);
  EXPECT_EQ(pvar_index_by_name("pml_monitoring_messages_size"), 1);
  EXPECT_EQ(pvar_index_by_name("osc_monitoring_messages_size"), 5);
  EXPECT_EQ(pvar_index_by_name("no_such_pvar"), -1);
  EXPECT_EQ(pvar_info(0).kind, mpi::CommKind::p2p);
  EXPECT_FALSE(pvar_info(0).is_size);
  EXPECT_TRUE(pvar_info(3).is_size);
  // 47..55 are the critpath block (frozen, see docs/OBSERVABILITY.md).
  EXPECT_EQ(pvar_index_by_name("mpim_critpath_events_total"), 47);
  EXPECT_EQ(pvar_index_by_name("mpim_critpath_blame_only"), 55);
  EXPECT_THROW(pvar_info(56), MpitError);
  EXPECT_THROW(pvar_info(-1), MpitError);
}

TEST(Pvar, PeerMonitoringIndicesAreStable) {
  // Indices 0..5 are frozen: mpimon binds them positionally, and external
  // tools are allowed to cache them. Appending telemetry pvars (PR 2) must
  // never shift them.
  const char* frozen[6] = {
      "pml_monitoring_messages_count", "pml_monitoring_messages_size",
      "coll_monitoring_messages_count", "coll_monitoring_messages_size",
      "osc_monitoring_messages_count", "osc_monitoring_messages_size"};
  for (int i = 0; i < 6; ++i) {
    EXPECT_STREQ(pvar_info(i).name, frozen[i]);
    EXPECT_EQ(pvar_info(i).klass, PvarClass::peer_monitoring);
    EXPECT_EQ(pvar_index_by_name(frozen[i]), i);
  }
}

TEST(Pvar, TelemetryPvarsAreAppendedAndResolvable) {
  for (const char* name :
       {"mpim_engine_messages_total", "mpim_engine_bytes_total",
        "mpim_fault_retransmits_total", "mpim_fault_drops_total",
        "mpim_mon_session_starts_total", "mpim_mon_partial_data_total",
        "mpim_reorder_treematch_ns_total",
        "mpim_reorder_identity_fallback_total"}) {
    const int idx = pvar_index_by_name(name);
    EXPECT_GE(idx, 6) << name;
    EXPECT_EQ(pvar_info(idx).klass, PvarClass::telemetry) << name;
    EXPECT_STREQ(pvar_info(idx).name, name);
  }
  EXPECT_TRUE(pvar_info(pvar_index_by_name("mpim_engine_bytes_total")).is_size);
  EXPECT_FALSE(
      pvar_info(pvar_index_by_name("mpim_engine_messages_total")).is_size);
}

// Golden of the whole frozen table -- name, class and is_size per index --
// captured before the telemetry pvars were derived from the telemetry
// catalog. It is the check, independent of that catalog and of the docs,
// that no index, name or class moved.
TEST(Pvar, FrozenTableMatchesItsGolden) {
  constexpr PvarClass kPeer = PvarClass::peer_monitoring;
  constexpr PvarClass kTele = PvarClass::telemetry;
  struct Row {
    const char* name;
    PvarClass klass;
    bool is_size;
  };
  const Row golden[] = {
      {"pml_monitoring_messages_count", kPeer, false},
      {"pml_monitoring_messages_size", kPeer, true},
      {"coll_monitoring_messages_count", kPeer, false},
      {"coll_monitoring_messages_size", kPeer, true},
      {"osc_monitoring_messages_count", kPeer, false},
      {"osc_monitoring_messages_size", kPeer, true},
      {"mpim_engine_messages_total", kTele, false},
      {"mpim_engine_bytes_total", kTele, true},
      {"mpim_engine_inbox_depth", kTele, false},
      {"mpim_engine_match_seconds", kTele, false},
      {"mpim_engine_message_bytes", kTele, false},
      {"mpim_fault_retransmits_total", kTele, false},
      {"mpim_fault_drops_total", kTele, false},
      {"mpim_fault_messages_lost_total", kTele, false},
      {"mpim_fault_backoff_ns_total", kTele, true},
      {"mpim_fault_stalls_total", kTele, false},
      {"mpim_fault_crashes_total", kTele, false},
      {"mpim_mon_session_starts_total", kTele, false},
      {"mpim_mon_session_suspends_total", kTele, false},
      {"mpim_mon_session_resets_total", kTele, false},
      {"mpim_mon_gather_timeouts_total", kTele, false},
      {"mpim_mon_partial_data_total", kTele, false},
      {"mpim_reorder_treematch_ns_total", kTele, true},
      {"mpim_reorder_applied_total", kTele, false},
      {"mpim_reorder_identity_fallback_total", kTele, false},
      {"mpim_introspect_snapshot_starts_total", kTele, false},
      {"mpim_introspect_frames_total", kTele, false},
      {"mpim_introspect_frames_dropped_total", kTele, false},
      {"mpim_introspect_phase_boundaries_total", kTele, false},
      {"mpim_introspect_load_imbalance_milli", kTele, false},
      {"mpim_introspect_neighbor_fraction_milli", kTele, false},
      {"mpim_introspect_mismatch_byte_hops", kTele, true},
      {"mpim_introspect_treematch_gain_milli", kTele, false},
      {"mpim_mon_rebinds_total", kTele, false},
      {"mpim_mon_dead_skips_total", kTele, false},
      {"mpim_governor_shed_steps_total", kTele, false},
      {"mpim_governor_refusals_total", kTele, false},
      {"mpim_governor_overhead_alarms_total", kTele, false},
      {"mpim_governor_shed_level", kTele, false},
      {"mpim_governor_mem_bytes", kTele, true},
      {"mpim_obsplane_events_total", kTele, false},
      {"mpim_obsplane_drops_total", kTele, false},
      {"mpim_obsplane_epochs_total", kTele, false},
      {"mpim_obsplane_findings_total", kTele, false},
      {"mpim_obsplane_series", kTele, false},
      {"mpim_obsplane_mem_bytes", kTele, true},
      {"mpim_obsplane_window_merge", kTele, false},
      {"mpim_critpath_events_total", kTele, false},
      {"mpim_critpath_events_dropped_total", kTele, false},
      {"mpim_critpath_wait_ns_total", kTele, true},
      {"mpim_critpath_late_sender_ns_total", kTele, true},
      {"mpim_critpath_late_receiver_ns_total", kTele, true},
      {"mpim_critpath_wait_collective_ns_total", kTele, true},
      {"mpim_critpath_root_imbalance_ns_total", kTele, true},
      {"mpim_critpath_extractions_total", kTele, false},
      {"mpim_critpath_blame_only", kTele, false},
  };
  ASSERT_EQ(pvar_get_num(), static_cast<int>(std::size(golden)));
  for (int i = 0; i < pvar_get_num(); ++i) {
    const Row& want = golden[i];
    EXPECT_STREQ(pvar_info(i).name, want.name) << "index " << i;
    EXPECT_EQ(pvar_info(i).klass, want.klass) << want.name;
    EXPECT_EQ(pvar_info(i).is_size, want.is_size) << want.name;
    EXPECT_EQ(pvar_index_by_name(want.name), i);
  }
}

TEST(Runtime, TelemetryPvarReadsThroughRegistry) {
  Sim sim = make_sim(2);
  sim.engine().telemetry().set_enabled(true);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    const Comm world = ctx.world();
    const int sid = rt.session_create();
    const int idx = pvar_index_by_name("mpim_engine_messages_total");
    ASSERT_GE(idx, 0);
    const int h = rt.handle_alloc(sid, idx, world);
    EXPECT_EQ(rt.handle_count(sid, h), 1);  // rank-local scalar, not per-peer
    rt.handle_start(sid, h);

    if (ctx.world_rank() == 0) {
      int v = 1;
      mpi::send(&v, 1, Type::Int, 1, 0, world);
      mpi::send(&v, 1, Type::Int, 1, 0, world);
    } else {
      int v = 0;
      mpi::recv(&v, 1, Type::Int, 0, 0, world);
      mpi::recv(&v, 1, Type::Int, 0, 0, world);
    }

    unsigned long sent = 0;
    ASSERT_EQ(rt.handle_read(sid, h, &sent, 1), 1);
    if (ctx.world_rank() == 0) {
      EXPECT_EQ(sent, 2u);  // the calling rank's sends only
    } else {
      EXPECT_EQ(sent, 0u);
    }

    // Reset is per handle: it rebases this handle without clearing the
    // shared registry metric.
    rt.handle_reset(sid, h);
    rt.handle_read(sid, h, &sent, 1);
    EXPECT_EQ(sent, 0u);
    EXPECT_GT(ctx.engine().telemetry().registry().counter_total(
                  Metric::engine_messages),
              0u);
    rt.session_free(sid);
  });
}

TEST(Runtime, TelemetryPvarAllocFailsWhenMetricMissing) {
  // Every telemetry pvar is backed by a live registry metric of the same
  // name; pvar.cpp derives those pvars from the telemetry catalog, so this
  // holds by construction. Each handle reads exactly its own metric.
  Sim sim = make_sim(1);
  sim.engine().telemetry().set_enabled(true);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    auto& reg = ctx.engine().telemetry().registry();
    const int sid = rt.session_create();
    for (int i = 6; i < pvar_get_num(); ++i) {
      const int h = rt.handle_alloc(sid, i, ctx.world());
      const int id = reg.find(pvar_info(i).name);
      ASSERT_GE(id, 0) << pvar_info(i).name;
      const std::uint64_t before = reg.scalar_value(id, 0);
      if (reg.spec(id).kind == telemetry::MetricKind::histogram)
        reg.observe(id, 0, 0.0);
      else
        reg.add(id, 0, 1);
      unsigned long v = 0;
      ASSERT_EQ(rt.handle_read(sid, h, &v, 1), 1);
      EXPECT_EQ(v, before + 1) << pvar_info(i).name;
    }
    rt.session_free(sid);
  });
}

TEST(Runtime, OfReturnsAttachedRuntime) {
  Sim sim = make_sim();
  EXPECT_EQ(&Runtime::of(sim.engine()), &sim.tool());
}

TEST(Runtime, StartedHandleCountsSentMessages) {
  Sim sim = make_sim(2);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    const Comm world = ctx.world();
    const int sid = rt.session_create();
    const int hc = rt.handle_alloc(sid, 0, world);  // p2p count
    const int hs = rt.handle_alloc(sid, 1, world);  // p2p size
    rt.handle_start(sid, hc);
    rt.handle_start(sid, hs);

    if (ctx.world_rank() == 0) {
      std::vector<std::byte> buf(100);
      mpi::send(buf.data(), buf.size(), Type::Byte, 1, 0, world);
      mpi::send(buf.data(), 50, Type::Byte, 1, 0, world);
    } else {
      std::vector<std::byte> buf(100);
      mpi::recv(buf.data(), buf.size(), Type::Byte, 0, 0, world);
      mpi::recv(buf.data(), buf.size(), Type::Byte, 0, 0, world);
    }

    rt.handle_stop(sid, hc);
    rt.handle_stop(sid, hs);
    unsigned long counts[2], sizes[2];
    EXPECT_EQ(rt.handle_read(sid, hc, counts, 2), 2);
    rt.handle_read(sid, hs, sizes, 2);
    if (ctx.world_rank() == 0) {
      EXPECT_EQ(counts[1], 2u);   // sender-side recording
      EXPECT_EQ(sizes[1], 150u);
      EXPECT_EQ(counts[0], 0u);
    } else {
      EXPECT_EQ(counts[0], 0u);   // the receiver sent nothing
      EXPECT_EQ(sizes[0], 0u);
    }
    rt.session_free(sid);
  });
}

TEST(Runtime, StoppedHandleRecordsNothing) {
  Sim sim = make_sim(2);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    const Comm world = ctx.world();
    const int sid = rt.session_create();
    const int h = rt.handle_alloc(sid, 0, world);
    // Never started.
    if (ctx.world_rank() == 0) {
      int v = 1;
      mpi::send(&v, 1, Type::Int, 1, 0, world);
    } else {
      int v = 0;
      mpi::recv(&v, 1, Type::Int, 0, 0, world);
    }
    unsigned long counts[2];
    rt.handle_read(sid, h, counts, 2);
    EXPECT_EQ(counts[0] + counts[1], 0u);
    rt.session_free(sid);
  });
}

TEST(Runtime, ResetZeroesValues) {
  Sim sim = make_sim(2);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    const Comm world = ctx.world();
    const int sid = rt.session_create();
    const int h = rt.handle_alloc(sid, 1, world);
    rt.handle_start(sid, h);
    if (ctx.world_rank() == 0) {
      int v = 1;
      mpi::send(&v, 1, Type::Int, 1, 0, world);
    } else {
      int v = 0;
      mpi::recv(&v, 1, Type::Int, 0, 0, world);
    }
    rt.handle_stop(sid, h);
    rt.handle_reset(sid, h);
    unsigned long sizes[2];
    rt.handle_read(sid, h, sizes, 2);
    EXPECT_EQ(sizes[0] + sizes[1], 0u);
    rt.session_free(sid);
  });
}

TEST(Runtime, KindFiltersSeparateTrafficClasses) {
  Sim sim = make_sim(4);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    const Comm world = ctx.world();
    const int sid = rt.session_create();
    const int hp2p = rt.handle_alloc(sid, 0, world);
    const int hcoll = rt.handle_alloc(sid, 2, world);
    rt.handle_start(sid, hp2p);
    rt.handle_start(sid, hcoll);

    // A broadcast decomposes into coll-kind point-to-point messages.
    int v = 3;
    mpi::bcast(&v, 1, Type::Int, 0, world);

    rt.handle_stop(sid, hp2p);
    rt.handle_stop(sid, hcoll);
    unsigned long p2p[4], coll[4];
    rt.handle_read(sid, hp2p, p2p, 4);
    rt.handle_read(sid, hcoll, coll, 4);
    unsigned long p2p_total = 0, coll_total = 0;
    for (int i = 0; i < 4; ++i) {
      p2p_total += p2p[i];
      coll_total += coll[i];
    }
    EXPECT_EQ(p2p_total, 0u);
    if (ctx.world_rank() == 0) {
      EXPECT_GE(coll_total, 1u);
    }
    rt.session_free(sid);
  });
}

TEST(Runtime, HandleBoundToSubCommSeesCrossCommTraffic) {
  // The Section 4.1 even/odd example: a handle bound to the evens
  // communicator records world-communicator traffic between evens.
  Sim sim = make_sim(4);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    const Comm world = ctx.world();
    const int r = mpi::comm_rank(world);
    const Comm evens = mpi::comm_split(world, r % 2 == 0 ? 0 : 1, r);

    const int sid = rt.session_create();
    int h = -1;
    if (r % 2 == 0) {
      h = rt.handle_alloc(sid, 0, evens);
      rt.handle_start(sid, h);
    }
    if (r == 0) {
      int v = 7;
      mpi::send(&v, 1, Type::Int, 2, 0, world);  // via WORLD, rank 0 -> 2
      int w = 7;
      mpi::send(&w, 1, Type::Int, 1, 0, world);  // 0 -> 1: 1 is odd
    } else if (r == 2 || r == 1) {
      int v = 0;
      mpi::recv(&v, 1, Type::Int, 0, 0, world);
    }
    if (r % 2 == 0) {
      rt.handle_stop(sid, h);
      unsigned long counts[2];
      rt.handle_read(sid, h, counts, 2);
      if (r == 0) {
        EXPECT_EQ(counts[1], 1u);  // the 0->2 message, indexed by evens rank
        EXPECT_EQ(counts[0], 0u);  // 0->1 invisible: 1 not in `evens`
      }
    }
    rt.session_free(sid);
  });
}

TEST(Runtime, MisuseThrowsMpitError) {
  Sim sim = make_sim(1);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    EXPECT_THROW(rt.session_free(99), MpitError);
    const int sid = rt.session_create();
    EXPECT_THROW(rt.handle_start(sid, 0), MpitError);
    const int h = rt.handle_alloc(sid, 0, ctx.world());
    rt.handle_start(sid, h);
    EXPECT_THROW(rt.handle_start(sid, h), MpitError);  // double start
    rt.handle_stop(sid, h);
    EXPECT_THROW(rt.handle_stop(sid, h), MpitError);  // double stop
    unsigned long v[1];
    EXPECT_EQ(rt.handle_read(sid, h, v, 1), 1);
    EXPECT_THROW(rt.handle_read(sid, h, v, 0), MpitError);  // too small
    rt.handle_free(sid, h);
    EXPECT_THROW(rt.handle_read(sid, h, v, 1), MpitError);  // freed
    rt.session_free(sid);
    EXPECT_THROW(rt.session_free(sid), MpitError);  // double free
    EXPECT_THROW(rt.handle_alloc(sid, 0, ctx.world()), MpitError);
  });
}

TEST(Runtime, FreedSessionIdsAreNeverReissued) {
  Sim sim = make_sim(1);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    const int stale = rt.session_create();
    const int h = rt.handle_alloc(stale, 0, ctx.world());
    rt.session_free(stale);
    const int live = rt.session_create();
    EXPECT_NE(live, stale);
    EXPECT_EQ(rt.handle_alloc(live, 0, ctx.world()), h);

    unsigned long v[1];
    EXPECT_THROW(rt.session_free(stale), MpitError);
    EXPECT_THROW(rt.handle_alloc(stale, 0, ctx.world()), MpitError);
    EXPECT_THROW(rt.set_session_observer(stale, nullptr), MpitError);
    EXPECT_THROW(rt.handle_read(stale, h, v, 1), MpitError);
    EXPECT_EQ(rt.handle_read(live, h, v, 1), 1);
    rt.session_free(live);
  });
}

TEST(Runtime, ToolTrafficIsInvisible) {
  Sim sim = make_sim(4);
  sim.run([&](Ctx& ctx) {
    Runtime& rt = Runtime::of(ctx.engine());
    const Comm world = ctx.world();
    const int sid = rt.session_create();
    const int h = rt.handle_alloc(sid, 2, world);  // coll count
    rt.handle_start(sid, h);
    // comm_split generates only tool traffic.
    mpi::comm_split(world, 0, mpi::comm_rank(world));
    rt.handle_stop(sid, h);
    unsigned long counts[4];
    rt.handle_read(sid, h, counts, 4);
    EXPECT_EQ(counts[0] + counts[1] + counts[2] + counts[3], 0u);
    rt.session_free(sid);
  });
}

TEST(Runtime, DestructionDisarmsTheSendRecordAndLeavesLaterRunsClean) {
  const auto ring = [](Ctx& ctx) {
    const Comm world = ctx.world();
    const int n = mpi::comm_size(world);
    const int me = mpi::comm_rank(world);
    int v = me;
    for (int i = 0; i < 4; ++i)
      mpi::sendrecv(&v, 1, Type::Int, (me + 1) % n, 0, &v, 1,
                    (me + n - 1) % n, 0, world);
  };
  mpi::Engine bare(make_cfg(4));
  bare.run(ring);

  mpi::Engine eng(make_cfg(4));
  std::atomic<int> seen{0};
  {
    Runtime rt(eng);
    rt.add_event_listener([&](const mpi::PktInfo&) { seen.fetch_add(1); });
    EXPECT_TRUE(eng.armed(mpi::EngineObserver::kSendRecord));
    eng.run([&](Ctx& ctx) {
      // A started handle charges monitoring overhead: this run's clocks
      // must differ from the bare run's.
      const int sid = rt.session_create();
      rt.handle_start(sid, rt.handle_alloc(sid, 0, ctx.world()));
      ring(ctx);
      rt.session_free(sid);
    });
    EXPECT_GT(seen.load(), 0);
    EXPECT_NE(eng.final_clocks(), bare.final_clocks());
  }
  EXPECT_FALSE(eng.armed(mpi::EngineObserver::kSendRecord));
  EXPECT_THROW(Runtime::of(eng), MpitError);

  const int before = seen.load();
  eng.run(ring);
  EXPECT_EQ(seen.load(), before);
  EXPECT_EQ(eng.final_clocks(), bare.final_clocks());
}

TEST(RuntimeListener, SeesTheFaultPlanRetransmitAttempts) {
  auto plan = std::make_shared<fault::FaultPlan>(11);
  fault::LinkFault drop;
  drop.src = 0;
  drop.dst = 1;
  drop.drop_prob = 0.999999;  // deterministically lost
  drop.max_retransmits = 2;
  drop.retransmit_backoff_s = 1e-6;
  plan->add(drop);
  auto cfg = make_cfg(2);
  cfg.fault_plan = plan;
  Sim sim(std::move(cfg));
  std::vector<int> attempts;  // only rank 0 sends: one writer thread
  sim.tool().add_event_listener(
      [&](const mpi::PktInfo& pkt) { attempts.push_back(pkt.attempts); });
  sim.run([](Ctx& ctx) {
    // Fire-and-forget: the message is lost after 3 attempts; no recv.
    if (ctx.world_rank() == 0)
      mpi::send(nullptr, 512, Type::Byte, 1, 0, ctx.world());
  });
  ASSERT_EQ(attempts.size(), 1u);
  EXPECT_EQ(attempts[0], 3);  // 1 first try + 2 retransmits
}

}  // namespace
}  // namespace mpim::mpit
