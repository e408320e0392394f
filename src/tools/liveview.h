// monview --live: terminal dashboard over the streaming plane's JSONL
// file (MPIM_STREAM_FILE). The tailer is deliberately forgiving -- the
// writer appends per epoch and may be mid-line (or dead) when we read, and
// late epochs may arrive out of order -- so every malformed line is
// counted and skipped, never fatal. Parsing is a small flat-object field
// scanner rather than a JSON library: the schema is one object per line,
// no nesting, written by obsplane::Plane.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace mpim::tools {

/// Rolling aggregate of everything seen on the stream so far.
struct LiveState {
  std::string job;
  int ranks = -1;          ///< from run_start; -1 until seen
  double epoch_s = 0.0;
  long last_epoch = -1;    ///< most recent epoch header applied
  long max_epoch = -1;     ///< highest epoch seen (>= last on reorder)
  std::uint64_t lines = 0;         ///< well-formed lines applied
  std::uint64_t parse_errors = 0;  ///< torn/garbage lines skipped
  std::uint64_t drops = 0;         ///< plane-side drop counter (last seen)
  bool run_ended = false;
  std::uint64_t run_end_epochs = 0;

  std::map<std::string, std::uint64_t> metric_totals;  ///< name -> sum(delta)
  std::map<int, std::uint64_t> rank_bytes;  ///< engine_bytes by rank
  std::map<int, std::uint64_t> rank_msgs;   ///< engine_messages by rank
  std::map<int, std::uint64_t> node_tx;         ///< cumulative link tx/node
  std::map<int, std::uint64_t> node_tx_epoch;   ///< last-epoch tx/node
  std::deque<std::string> event_lane;  ///< recent events, newest last
  std::vector<std::string> findings;

  /// Applies one complete stream line. False (and a parse_errors bump)
  /// for anything unrecognized, including an integer field that is not a
  /// finite number within long long range; a rejected line changes nothing
  /// but max_epoch.
  bool apply_line(const std::string& line);
};

/// Incremental tailer: each poll() reads lines appended since the last
/// one, keeping a torn trailing line buffered until its newline lands.
class StreamTail {
 public:
  explicit StreamTail(std::string path);

  /// Reads and applies newly completed lines; returns how many.
  std::size_t poll();

  const LiveState& state() const { return state_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
  std::string partial_;
  LiveState state_;
};

/// Renders the dashboard (top talkers, per-node link bars, event lane,
/// findings) as plain text -- the live loop adds the screen clearing.
void render_live(const LiveState& state, std::ostream& os);

/// The `monview --live` loop: poll/render every `interval_ms` until the
/// stream's run_end arrives (or immediately with `once`). Returns a
/// shell-style exit code; a missing file is an error only with `once`.
int run_live(const std::string& path, bool once, int interval_ms);

}  // namespace mpim::tools
