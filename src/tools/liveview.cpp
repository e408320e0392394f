#include "tools/liveview.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#include "support/table.h"

namespace mpim::tools {

namespace {

constexpr std::size_t kEventLaneCap = 12;
constexpr int kBarWidth = 24;
constexpr int kTopTalkers = 8;

/// Finds the raw value text of `key` in a flat one-object JSON line.
/// Returns false when the key is absent.
bool find_value(const std::string& line, const char* key, std::size_t* pos) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *pos = at + needle.size();
  return true;
}

bool json_str(const std::string& line, const char* key, std::string* out) {
  std::size_t p = 0;
  if (!find_value(line, key, &p) || p >= line.size() || line[p] != '"')
    return false;
  std::string v;
  for (std::size_t i = p + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      const char n = line[++i];
      v += n == 'n' ? '\n' : n == 't' ? '\t' : n;  // enough for our writer
      continue;
    }
    if (c == '"') {
      *out = std::move(v);
      return true;
    }
    v += c;
  }
  return false;  // unterminated string: torn line
}

bool json_num(const std::string& line, const char* key, double* out) {
  std::size_t p = 0;
  if (!find_value(line, key, &p)) return false;
  const char* s = line.c_str() + p;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s) return false;
  *out = v;
  return true;
}

/// Thrown for an integer field whose text strtod accepts but long long
/// cannot hold (nan, inf, 1e300): the whole line is corrupt.
struct BadNumber {};

bool json_i64(const std::string& line, const char* key, long long* out) {
  double v = 0.0;
  if (!json_num(line, key, &v)) return false;
  // [-2^63, 2^63) is exactly the doubles that truncate into long long;
  // the negated test also rejects NaN.
  if (!(v >= -0x1p63 && v < 0x1p63)) throw BadNumber{};
  *out = static_cast<long long>(v);
  return true;
}

void push_event(LiveState& st, std::string text) {
  st.event_lane.push_back(std::move(text));
  while (st.event_lane.size() > kEventLaneCap) st.event_lane.pop_front();
}

std::string bar(std::uint64_t value, std::uint64_t max) {
  const int n =
      max == 0 ? 0
               : static_cast<int>((static_cast<double>(value) * kBarWidth) /
                                  static_cast<double>(max));
  std::string b(static_cast<std::size_t>(std::max(n, value > 0 ? 1 : 0)),
                '#');
  b.resize(kBarWidth, ' ');
  return b;
}

}  // namespace

bool LiveState::apply_line(const std::string& line) try {
  std::string type;
  if (line.empty() || line[0] != '{' || line.back() != '}' ||
      !json_str(line, "type", &type)) {
    ++parse_errors;
    return false;
  }
  long long e = -1;
  json_i64(line, "e", &e);
  if (e > max_epoch) max_epoch = e;

  if (type == "run_start") {
    long long r = -1;
    if (json_i64(line, "ranks", &r)) ranks = static_cast<int>(r);
    json_str(line, "job", &job);
    json_num(line, "epoch_s", &epoch_s);
  } else if (type == "epoch") {
    last_epoch = e;
  } else if (type == "metric") {
    std::string name;
    long long rank = -1, delta = 0;
    if (!json_str(line, "name", &name) || !json_i64(line, "rank", &rank) ||
        !json_i64(line, "delta", &delta)) {
      ++parse_errors;
      return false;
    }
    metric_totals[name] += static_cast<std::uint64_t>(delta);
    if (name == "engine_bytes")
      rank_bytes[static_cast<int>(rank)] += static_cast<std::uint64_t>(delta);
    else if (name == "engine_messages")
      rank_msgs[static_cast<int>(rank)] += static_cast<std::uint64_t>(delta);
  } else if (type == "frame") {
    long long rank = -1, boundary = 0;
    json_i64(line, "rank", &rank);
    json_i64(line, "boundary", &boundary);
    if (boundary != 0)
      push_event(*this, "e" + std::to_string(e) + " r" +
                            std::to_string(rank) + " phase boundary");
  } else if (type == "span") {
    std::string cat, name;
    long long rank = -1;
    json_str(line, "cat", &cat);
    json_str(line, "name", &name);
    json_i64(line, "rank", &rank);
    push_event(*this, "e" + std::to_string(e) + " r" + std::to_string(rank) +
                          " span[" + cat + "] " + name);
  } else if (type == "event") {
    std::string what, name;
    long long rank = -1;
    if (!json_str(line, "what", &what)) {
      ++parse_errors;
      return false;
    }
    json_i64(line, "rank", &rank);
    json_str(line, "name", &name);
    push_event(*this, "e" + std::to_string(e) + " r" + std::to_string(rank) +
                          " " + what + (name.empty() ? "" : " " + name));
  } else if (type == "link") {
    long long node = -1, tx = 0;
    if (!json_i64(line, "node", &node) || !json_i64(line, "tx", &tx)) {
      ++parse_errors;
      return false;
    }
    node_tx[static_cast<int>(node)] += static_cast<std::uint64_t>(tx);
    node_tx_epoch[static_cast<int>(node)] = static_cast<std::uint64_t>(tx);
  } else if (type == "epoch_end") {
    long long d = 0;
    if (json_i64(line, "drops", &d)) drops = static_cast<std::uint64_t>(d);
  } else if (type == "finding") {
    std::string text;
    if (json_str(line, "text", &text)) findings.push_back(std::move(text));
  } else if (type == "run_end") {
    long long ep = 0, d = 0;
    const bool has_epochs = json_i64(line, "epochs", &ep);
    if (json_i64(line, "drops", &d)) drops = static_cast<std::uint64_t>(d);
    if (has_epochs) run_end_epochs = static_cast<std::uint64_t>(ep);
    run_ended = true;
  } else {
    ++parse_errors;
    return false;
  }
  ++lines;
  return true;
} catch (const BadNumber&) {
  ++parse_errors;
  return false;
}

StreamTail::StreamTail(std::string path) : path_(std::move(path)) {}

std::size_t StreamTail::poll() {
  std::ifstream f(path_, std::ios::binary);
  if (!f) return 0;
  f.seekg(0, std::ios::end);
  const auto end = f.tellg();
  if (end < 0 || static_cast<std::uint64_t>(end) <= offset_) return 0;
  f.seekg(static_cast<std::streamoff>(offset_));
  std::string chunk(static_cast<std::size_t>(end) - offset_, '\0');
  f.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  chunk.resize(static_cast<std::size_t>(f.gcount()));
  offset_ += chunk.size();

  std::size_t applied = 0;
  std::size_t start = 0;
  partial_ += chunk;
  std::string buf = std::move(partial_);
  partial_.clear();
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (buf[i] != '\n') continue;
    const std::string line = buf.substr(start, i - start);
    start = i + 1;
    if (line.empty()) continue;
    if (state_.apply_line(line)) ++applied;
  }
  partial_ = buf.substr(start);  // torn tail: wait for its newline
  return applied;
}

void render_live(const LiveState& st, std::ostream& os) {
  os << "== mpim stream: job " << (st.job.empty() ? "?" : st.job) << ", "
     << (st.ranks > 0 ? std::to_string(st.ranks) : "?") << " ranks, epoch "
     << st.epoch_s << "s ==\n";
  os << "epoch " << st.last_epoch << " (max " << st.max_epoch << "), "
     << st.lines << " lines, " << st.parse_errors << " skipped, "
     << st.drops << " plane drops"
     << (st.run_ended ? " [run ended]" : "") << "\n\n";

  std::vector<std::pair<int, std::uint64_t>> talkers(st.rank_bytes.begin(),
                                                     st.rank_bytes.end());
  std::sort(talkers.begin(), talkers.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  if (talkers.size() > kTopTalkers) talkers.resize(kTopTalkers);
  if (!talkers.empty()) {
    os << "top talkers (bytes sent)\n";
    const std::uint64_t max = talkers.front().second;
    for (const auto& [rank, bytes] : talkers) {
      auto msgs = st.rank_msgs.find(rank);
      os << "  r" << rank << " |" << bar(bytes, max) << "| "
         << format_bytes(static_cast<double>(bytes)) << ", "
         << (msgs != st.rank_msgs.end() ? msgs->second : 0) << " msgs\n";
    }
    os << "\n";
  }

  if (!st.node_tx.empty()) {
    os << "link utilization (last epoch tx / cumulative)\n";
    std::uint64_t max = 0;
    for (const auto& [node, tx] : st.node_tx_epoch) max = std::max(max, tx);
    for (const auto& [node, total] : st.node_tx) {
      auto ep = st.node_tx_epoch.find(node);
      const std::uint64_t last = ep != st.node_tx_epoch.end() ? ep->second : 0;
      os << "  node" << node << " |" << bar(last, max) << "| "
         << format_bytes(static_cast<double>(last)) << " / "
         << format_bytes(static_cast<double>(total)) << "\n";
    }
    os << "\n";
  }

  if (!st.event_lane.empty()) {
    os << "events\n";
    for (const std::string& ev : st.event_lane) os << "  " << ev << "\n";
    os << "\n";
  }

  if (!st.findings.empty()) {
    os << "findings\n";
    for (const std::string& f : st.findings) os << "  - " << f << "\n";
  }
}

int run_live(const std::string& path, bool once, int interval_ms) {
  StreamTail tail(path);
  if (once) {
    tail.poll();
    if (tail.state().lines == 0 && tail.state().parse_errors == 0) {
      std::fprintf(stderr, "monview --live: no stream data in %s\n",
                   path.c_str());
      return 1;
    }
    std::ostringstream os;
    render_live(tail.state(), os);
    std::fputs(os.str().c_str(), stdout);
    return 0;
  }
  for (;;) {
    tail.poll();
    std::ostringstream os;
    render_live(tail.state(), os);
    // One clear + one write per frame keeps flicker down on real terminals.
    std::fputs("\x1b[2J\x1b[H", stdout);
    std::fputs(os.str().c_str(), stdout);
    std::fflush(stdout);
    if (tail.state().run_ended) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        interval_ms > 0 ? interval_ms : 200));
  }
}

}  // namespace mpim::tools
