#include "obs/progress.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "obs/minijson.hpp"

namespace obd::obs {

std::string heartbeat_json(const Heartbeat& hb) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"shard\":%d,\"phase\":\"%s\",\"resolved\":%lld,"
                "\"assigned\":%lld,\"detected\":%lld,\"aborted\":%lld,"
                "\"coverage\":%.6f,\"ckpt_seq\":%lld,\"elapsed_s\":%.3f,"
                "\"ts_us\":%lld}",
                hb.shard, hb.phase.c_str(), hb.resolved, hb.assigned,
                hb.detected, hb.aborted, hb.coverage, hb.ckpt_seq,
                hb.elapsed_s, static_cast<long long>(hb.ts_us));
  return std::string(buf);
}

bool parse_heartbeat(std::string_view line, Heartbeat& out) {
  std::vector<minijson::Field> fields;
  if (!minijson::parse_object(line, fields)) return false;
  std::int64_t v = 0;
  if (!minijson::get_i64(fields, "shard", v)) return false;
  out.shard = static_cast<int>(v);
  if (!minijson::get_str(fields, "phase", out.phase)) return false;
  if (!minijson::get_i64(fields, "resolved", v)) return false;
  out.resolved = v;
  if (!minijson::get_i64(fields, "assigned", v)) return false;
  out.assigned = v;
  if (!minijson::get_i64(fields, "detected", v)) return false;
  out.detected = v;
  if (!minijson::get_i64(fields, "aborted", v)) return false;
  out.aborted = v;
  if (!minijson::get_f64(fields, "coverage", out.coverage)) return false;
  if (!minijson::get_i64(fields, "ckpt_seq", v)) return false;
  out.ckpt_seq = v;
  if (!minijson::get_f64(fields, "elapsed_s", out.elapsed_s)) return false;
  if (!minijson::get_i64(fields, "ts_us", v)) return false;
  out.ts_us = v;
  return true;
}

std::string progress_path(const std::string& checkpoint_dir, int shard) {
  return checkpoint_dir + "/progress-" + std::to_string(shard) + ".ndjson";
}

ProgressWriter::ProgressWriter(std::string path, double interval_s)
    : interval_s_(interval_s) {
  if (path.empty()) return;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
}

ProgressWriter::~ProgressWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void ProgressWriter::emit(const Heartbeat& hb) {
  if (fd_ < 0) return;
  std::string line = heartbeat_json(hb);
  line += '\n';
  // One write() per line: appends of this size are atomic enough that a
  // reader polling the file never splits a record.
  (void)::write(fd_, line.data(), line.size());
  last_ = std::chrono::steady_clock::now();
  ever_emitted_ = true;
}

bool ProgressWriter::due() const {
  if (fd_ < 0) return false;
  if (!ever_emitted_ || interval_s_ <= 0) return true;
  const auto since = std::chrono::steady_clock::now() - last_;
  return std::chrono::duration<double>(since).count() >= interval_s_;
}

bool read_last_heartbeat(const std::string& path, Heartbeat& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty()) last = line;
  }
  if (last.empty()) return false;
  return parse_heartbeat(last, out);
}

long long file_size_or_negative(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<long long>(st.st_size);
}

double eta_seconds(long long resolved, long long assigned, double elapsed_s) {
  if (resolved <= 0 || elapsed_s <= 0.0) return -1.0;
  const double rate = static_cast<double>(resolved) / elapsed_s;
  const long long remaining = assigned - resolved;
  if (remaining <= 0) return 0.0;
  return static_cast<double>(remaining) / rate;
}

}  // namespace obd::obs
