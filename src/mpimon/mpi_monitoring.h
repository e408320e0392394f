// MPI_Monitoring -- the introspection monitoring library of the paper.
//
// High-level sessions over the low-level MPI_T pvars (mpit::Runtime):
//
//   MPI_M_msid id;
//   MPI_M_init();
//   MPI_M_start(comm, &id);            // session active: traffic recorded
//   ... code to watch ...
//   MPI_M_suspend(id);                 // data readable while suspended
//   MPI_M_allgather_data(id, counts, sizes, MPI_M_ALL_COMM);
//   MPI_M_free(id);
//   MPI_M_finalize();
//
// Semantics reproduced from the paper (Section 4):
//  * a session is attached to a communicator and records the messages whose
//    sender AND receiver belong to it, even when the traffic travels over a
//    different communicator;
//  * collectives are recorded AFTER decomposition into point-to-point
//    messages, with their own traffic class (MPI_M_COLL_ONLY);
//  * sessions are independent: they may overlap and nest freely;
//  * recording happens only in the "active" state; data access (get/gather/
//    flush/reset) requires the "suspended" state;
//  * all functions are thread-safe, return MPI_M_SUCCESS or one of the
//    error codes below, and must be called by every process of the
//    session's communicator (get_info excepted);
//  * the library's own gathers use tool-class traffic that no session ever
//    records.
#pragma once

#include "minimpi/comm.h"

/// Monitoring Session IDentifier. Opaque: only meaningful to MPI_M_* calls.
using MPI_M_msid = int;

// --- special values ----------------------------------------------------------

/// Acts on every session currently active or suspended (suspend, continue,
/// reset, free only).
inline constexpr MPI_M_msid MPI_M_ALL_MSID = -1;

/// Pass for unwanted int output parameters.
inline int* const MPI_M_INT_IGNORE = nullptr;
/// Pass for unwanted unsigned long* output parameters.
inline unsigned long* const MPI_M_DATA_IGNORE = nullptr;

// --- kind-filter flags (bitwise-combinable) ----------------------------------

inline constexpr int MPI_M_P2P_ONLY = 1 << 0;
inline constexpr int MPI_M_COLL_ONLY = 1 << 1;
inline constexpr int MPI_M_OSC_ONLY = 1 << 2;
inline constexpr int MPI_M_ALL_COMM =
    MPI_M_P2P_ONLY | MPI_M_COLL_ONLY | MPI_M_OSC_ONLY;

// --- return codes -------------------------------------------------------------

inline constexpr int MPI_M_SUCCESS = 0;
/// An internal error occurred (allocation or system call failed).
inline constexpr int MPI_M_INTERNAL_FAIL = 1;
/// An MPI or MPI_T function failed.
inline constexpr int MPI_M_MPIT_FAIL = 2;
/// No call to MPI_M_init has been done.
inline constexpr int MPI_M_MISSING_INIT = 3;
/// At least one session has not been suspended (finalize).
inline constexpr int MPI_M_SESSION_STILL_ACTIVE = 4;
/// The session has not been suspended (data access / reset / free).
inline constexpr int MPI_M_SESSION_NOT_SUSPENDED = 5;
/// The msid does not refer to a live session, or is MPI_M_ALL_MSID where
/// that is not allowed.
inline constexpr int MPI_M_INVALID_MSID = 6;
/// The maximum number of simultaneous sessions has been reached.
inline constexpr int MPI_M_SESSION_OVERFLOW = 7;
/// init or continue (resp. suspend) called more than once without suspend
/// (resp. continue).
inline constexpr int MPI_M_MULTIPLE_CALL = 8;
/// The root parameter is invalid.
inline constexpr int MPI_M_INVALID_ROOT = 9;
/// The flags parameter is not a combination of the MPI_M_*_ONLY flags.
inline constexpr int MPI_M_INVALID_FLAGS = 10;
/// A gather completed but one or more contributors crashed or timed out;
/// their rows hold MPI_M_DATA_MISSING. The rest of the matrix is valid.
inline constexpr int MPI_M_PARTIAL_DATA = 11;
/// A snapshot operation was called on a session that has no snapshot
/// sampler attached (MPI_M_snapshot_start not called, or already stopped
/// where a running snapshot is required).
inline constexpr int MPI_M_NO_SNAPSHOT = 12;
/// A critpath operation was called but no critical-path profiler is
/// attached to the engine (mon::attach_critpath before run()).
inline constexpr int MPI_M_NO_CRITPATH = 13;

/// Sentinel filling the rows of contributors that could not be gathered
/// (crashed or timed-out ranks) when a gather returns MPI_M_PARTIAL_DATA.
inline constexpr unsigned long MPI_M_DATA_MISSING = ~0ul;

/// Maximum number of simultaneously live sessions per process.
inline constexpr int MPI_M_MAX_SESSIONS = 256;

/// Human-readable error-code name ("MPI_M_INVALID_MSID"...).
const char* MPI_M_error_string(int code);

// --- environment ---------------------------------------------------------------

/// Sets the monitoring environment. Call between MPI_Init and MPI_Finalize
/// (here: inside Engine::run, after attaching an mpit::Runtime).
int MPI_M_init();
/// Finalizes the monitoring environment; every session must be suspended or
/// freed beforehand (suspended ones are freed).
int MPI_M_finalize();

// --- session control -------------------------------------------------------------

/// Creates and starts a monitoring session on `comm`. Counts and sizes of
/// messages between any two processes of `comm` are recorded, whatever
/// communicator carries them.
int MPI_M_start(mpim::mpi::Comm comm, MPI_M_msid* msid);
/// Suspends an active session, making its data available.
int MPI_M_suspend(MPI_M_msid msid);
/// Restarts a suspended session.
int MPI_M_continue(MPI_M_msid msid);
/// Zeroes the data of a suspended session.
int MPI_M_reset(MPI_M_msid msid);
/// Frees a suspended session (data no longer available).
int MPI_M_free(MPI_M_msid msid);

// --- fault recovery ----------------------------------------------------------

/// Rebinds a *suspended* session onto `newcomm` -- typically the shrunk
/// successor of its communicator after mpim::mpi::comm_shrink. The
/// accumulated per-peer counts and sizes of every member shared by the old
/// and new communicator are carried over (remapped by world rank); rows of
/// members that disappeared are tombstoned (MPI_M_session_tombstones). Any
/// attached snapshot sampler is dropped: its frame grid was sized for the
/// old group. The session stays suspended; MPI_M_continue resumes
/// recording on the new communicator. Collective over `newcomm` by
/// convention, though no traffic is generated. Errors:
/// MPI_M_SESSION_NOT_SUSPENDED unless suspended, MPI_M_INTERNAL_FAIL when
/// `newcomm` is null or does not contain the caller.
int MPI_M_rebind(MPI_M_msid msid, mpim::mpi::Comm newcomm);

/// Tombstones of a session: world ranks that were members of a previous
/// binding but are absent from the current one (their rows were dropped at
/// MPI_M_rebind). Writes up to `capacity` entries to `world_ranks` (may be
/// MPI_M_INT_IGNORE) and the total to `count`. Local; any state.
int MPI_M_session_tombstones(MPI_M_msid msid, int* world_ranks, int capacity,
                             int* count);

// --- data access ------------------------------------------------------------------

/// provided: level of thread support (always "multiple" here);
/// array_size: length of the get_data arrays / order of the gather matrices.
int MPI_M_get_info(MPI_M_msid msid, int* provided, int* array_size);

/// Copies the calling process's per-peer sent counts/bytes. Collective over
/// the session communicator by convention, though no traffic is generated.
int MPI_M_get_data(MPI_M_msid msid, unsigned long* msg_counts,
                   unsigned long* msg_sizes, int flags);

/// get_data + allgather: every process receives the full size x size
/// matrices (row-major, row i = messages sent by rank i).
int MPI_M_allgather_data(MPI_M_msid msid, unsigned long* matrix_counts,
                         unsigned long* matrix_sizes, int flags);

/// Like allgather_data but only `root` receives; others may pass NULL.
int MPI_M_rootgather_data(MPI_M_msid msid, int root,
                          unsigned long* matrix_counts,
                          unsigned long* matrix_sizes, int flags);

/// Wall-clock budget per missing contributor before a gather gives up on a
/// rank and fills its row with MPI_M_DATA_MISSING (returning
/// MPI_M_PARTIAL_DATA instead of hanging). Only the failure-aware
/// schedules minimpi/ft.h picks wait with it; the default is 5 s,
/// overridable with the MPIM_GATHER_TIMEOUT_S environment variable. The
/// setter rejects non-positive values with MPI_M_INTERNAL_FAIL.
int MPI_M_set_gather_timeout(double timeout_s);
double MPI_M_get_gather_timeout();

// --- windowed snapshots (time-resolved introspection) -----------------------

/// Attaches a windowed snapshot sampler to an *active* session: from now
/// on the session's traffic is additionally binned into fixed windows of
/// `window_s` virtual seconds (global grid: window w covers
/// [w*window_s, (w+1)*window_s)), kept in a bounded ring of the last
/// `max_frames` per-window delta frames. Local, no traffic; recording
/// pauses while the session is suspended and never charges virtual time
/// (clocks are bit-identical with snapshots on or off).
/// Errors: MPI_M_MULTIPLE_CALL when a snapshot is already running,
/// MPI_M_INVALID_FLAGS for a bad kind filter, MPI_M_INTERNAL_FAIL for a
/// non-positive window or frame budget, MPI_M_MULTIPLE_CALL rules over a
/// stopped snapshot: restarting is allowed and discards the old frames.
int MPI_M_snapshot_start(MPI_M_msid msid, double window_s, int max_frames,
                         int flags);

/// Stops a running snapshot: closes the current window and detaches the
/// sampler from the send path. Frames stay readable until reset/free or a
/// new snapshot_start. Allowed in active or suspended state; returns
/// MPI_M_NO_SNAPSHOT when none is running.
int MPI_M_snapshot_stop(MPI_M_msid msid);

/// Local snapshot counters of a *suspended* session: frames currently
/// held, frames evicted from the ring, and phase boundaries the detector
/// flagged on this rank's traffic. Any output may be MPI_M_INT_IGNORE.
int MPI_M_snapshot_info(MPI_M_msid msid, int* nframes, int* frames_dropped,
                        int* phase_boundaries);

/// Collective over the session communicator (suspended session, snapshot
/// attached on every rank with the same window_s): aligns every rank's
/// frames on the global window grid and returns, on every process, the
/// last (up to) `max_frames` windows as full per-window matrices.
/// Outputs, each optionally MPI_M_DATA_IGNORE / MPI_M_INT_IGNORE except
/// nframes: t0_s/t1_s[max_frames] window bounds, matrix_counts/
/// matrix_sizes[max_frames * n * n] row-major per-window matrices
/// (windows nobody wrote to are all-zero; `flags` selects the traffic
/// classes summed). Under faults, rows of crashed or timed-out
/// contributors hold MPI_M_DATA_MISSING and the call returns
/// MPI_M_PARTIAL_DATA. On success the per-window analyzer also refreshes
/// the mpim_introspect_* derived-metric pvars of the calling rank.
int MPI_M_get_frames(MPI_M_msid msid, int max_frames, int* nframes,
                     double* t0_s, double* t1_s,
                     unsigned long* matrix_counts,
                     unsigned long* matrix_sizes, int flags);

/// Each process writes its own row to "<filename>.<rank>.prof" (rank in the
/// session communicator).
int MPI_M_flush(MPI_M_msid msid, const char* filename, int flags);

// --- causal critical-path profiler (src/critpath) ----------------------------
//
// All calls are local to the calling rank (no traffic, no virtual cost)
// and require a profiler attached to the engine before run() -- see
// mon::attach_critpath (src/mpimon/critpath_attach.h) -- else they return
// MPI_M_NO_CRITPATH. Capture never charges virtual time: clocks are
// bit-identical with the profiler armed or not.

/// Arms wait-state and event capture for the calling rank's lane (lanes
/// start armed at every run begin).
int MPI_M_critpath_start();
/// Disarms the calling rank's lane; accumulated data stays readable.
int MPI_M_critpath_stop();
/// Local capture counters of the calling rank: events captured, ring
/// evictions, and whether the governor forced blame-only mode (0/1).
/// Any output may be MPI_M_INT_IGNORE.
int MPI_M_critpath_info(int* events, int* dropped, int* blame_only);
/// Calling rank's classified wait time per wait-state class, virtual
/// nanoseconds. Any output may be MPI_M_DATA_IGNORE.
int MPI_M_critpath_classes(unsigned long* late_sender_ns,
                           unsigned long* late_receiver_ns,
                           unsigned long* wait_collective_ns,
                           unsigned long* root_imbalance_ns);
/// Calling rank's wait charged to each world peer, virtual nanoseconds.
/// Writes up to `capacity` entries to `wait_ns` (may be
/// MPI_M_DATA_IGNORE) and the world size to `count` (MPI_M_INT_IGNORE ok).
int MPI_M_critpath_waits(unsigned long* wait_ns, int capacity, int* count);
/// Peer the calling rank waited longest on (-1 when it never waited) and
/// that wait in virtual nanoseconds.
int MPI_M_critpath_dominant(int* peer, unsigned long* wait_ns);

/// `root` gathers everything and writes "<filename>_counts.<rank>.prof" and
/// "<filename>_sizes.<rank>.prof" (rank of root in MPI_COMM_WORLD).
int MPI_M_rootflush(MPI_M_msid msid, int root, const char* filename,
                    int flags);
