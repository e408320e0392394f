#include "telemetry/export.h"

#include <fstream>
#include <ostream>

#include "support/error.h"
#include "support/table.h"
#include "telemetry/log.h"

namespace mpim::telemetry {

namespace {

std::ofstream open_or_fail(const std::string& path) {
  std::ofstream f(path);
  check(static_cast<bool>(f), "cannot open for writing: " + path);
  return f;
}

}  // namespace

void write_chrome_trace(const Hub& hub, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  for (int r = 0; r < hub.nranks(); ++r) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"args\":{\"name\":\"rank " << r << "\"}}";
  }
  for (int r = 0; r < hub.nranks(); ++r) {
    for (const SpanRec& s : hub.spans(r)) {
      sep();
      const double ts_us = s.t0_s * 1e6;
      const double dur_us = (s.t1_s - s.t0_s) * 1e6;
      os << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\"" << s.cat
         << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << r << ",\"ts\":" << ts_us
         << ",\"dur\":" << (dur_us < 0 ? 0.0 : dur_us)
         << ",\"args\":{\"depth\":" << static_cast<int>(s.depth)
         << ",\"a\":" << s.a << ",\"b\":" << s.b << "}}";
    }
  }
  os << "],\"otherData\":{\"spans_dropped\":" << hub.spans_dropped()
     << ",\"metrics\":{";
  const Registry& reg = hub.registry();
  for (int id = 0; id < reg.metric_count(); ++id) {
    if (id > 0) os << ",";
    os << "\"" << json_escape(std::string(reg.spec(id).name))
       << "\":" << reg.scalar_total(id);
  }
  os << "}}}\n";
}

void write_chrome_trace_file(const Hub& hub, const std::string& path) {
  std::ofstream f = open_or_fail(path);
  write_chrome_trace(hub, f);
}

void write_metrics_csv(const Hub& hub, std::ostream& os) {
  os << "metric,kind,rank,field,value\n";
  const Registry& reg = hub.registry();
  for (int id = 0; id < reg.metric_count(); ++id) {
    const MetricSpec& d = reg.spec(id);
    for (int r = 0; r < reg.nranks(); ++r) {
      switch (d.kind) {
        case MetricKind::counter:
          os << d.name << ",counter," << r << ",value,"
             << reg.counter_value(id, r) << "\n";
          break;
        case MetricKind::gauge:
          os << d.name << ",gauge," << r << ",value," << reg.gauge_value(id, r)
             << "\n";
          break;
        case MetricKind::histogram: {
          const Registry::HistView v = reg.histogram(id, r);
          for (std::size_t i = 0; i < v.buckets.size(); ++i) {
            os << d.name << ",histogram," << r << ",le=";
            if (i < v.bounds.size())
              os << v.bounds[i];
            else
              os << "inf";
            os << "," << v.buckets[i] << "\n";
          }
          os << d.name << ",histogram," << r << ",count," << v.count << "\n";
          break;
        }
      }
    }
  }
}

void write_metrics_csv_file(const Hub& hub, const std::string& path) {
  std::ofstream f = open_or_fail(path);
  write_metrics_csv(hub, f);
}

void write_spans_csv(const Hub& hub, std::ostream& os) {
  os << "rank,name,cat,depth,t0_s,t1_s,a,b\n";
  for (int r = 0; r < hub.nranks(); ++r) {
    for (const SpanRec& s : hub.spans(r)) {
      os << r << "," << s.name << "," << s.cat << ","
         << static_cast<int>(s.depth) << "," << format_sig(s.t0_s, 9) << ","
         << format_sig(s.t1_s, 9) << "," << s.a << "," << s.b << "\n";
    }
  }
}

void write_spans_csv_file(const Hub& hub, const std::string& path) {
  std::ofstream f = open_or_fail(path);
  write_spans_csv(hub, f);
}

}  // namespace mpim::telemetry
