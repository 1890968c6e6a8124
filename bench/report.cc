#include "bench/report.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "src/check/check_context.h"
#include "src/core/snapshot.h"

namespace tlbsim {

namespace {

// `--json out/` or a path to an existing directory means "name the file for
// me"; anything else is used verbatim.
std::string ResolvePath(std::string_view raw, std::string_view bench) {
  std::filesystem::path p(raw);
  std::error_code ec;
  bool is_dir = !raw.empty() && (raw.back() == '/' || std::filesystem::is_directory(p, ec));
  if (is_dir) {
    p /= "BENCH_" + std::string(bench) + ".json";
  }
  return p.string();
}

}  // namespace

namespace {

// `--backend` is the protocol axis; a typo here silently benchmarking the
// wrong protocol would poison a whole sweep, so bad values are fatal.
std::vector<FlushBackendKind> ParseBackends(const std::string& raw, const std::string& bench) {
  if (raw == "both") {
    return {FlushBackendKind::kIpi, FlushBackendKind::kQueue};
  }
  FlushBackendKind kind = FlushBackendKind::kIpi;
  if (ParseFlushBackend(raw, &kind)) {
    return {kind};
  }
  std::fprintf(stderr,
               "%s: unknown --backend value '%s'\n"
               "usage: %s [--backend {ipi,queue,both}] [--json PATH] [--threads N]"
               " [--quick] [--check]\n",
               bench.c_str(), raw.c_str(), bench.c_str());
  std::exit(2);
}

int ParseThreads(std::string_view raw) {
  int v = 0;
  for (char c : raw) {
    if (c < '0' || c > '9' || v > 4096) {
      std::fprintf(stderr, "BenchReport: bad --threads value '%.*s'; using 1\n",
                   static_cast<int>(raw.size()), raw.data());
      return 1;
    }
    v = v * 10 + (c - '0');
  }
  return v < 1 ? 1 : v;
}

}  // namespace

BenchReport::BenchReport(const char* name, int argc, char** argv)
    : name_(name), threads_(ThreadPool::DefaultThreadCount()) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      path_ = ResolvePath(argv[i + 1], name_);
      ++i;
    } else if (arg == "--json") {
      std::fprintf(stderr, "BenchReport: --json needs a path; no report will be written\n");
    } else if (arg.rfind("--json=", 0) == 0) {
      path_ = ResolvePath(arg.substr(7), name_);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads_ = ParseThreads(argv[i + 1]);
      ++i;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads_ = ParseThreads(arg.substr(10));
    } else if (arg == "--quick") {
      quick_ = true;
    } else if (arg == "--check") {
      check_ = true;
    } else if (arg == "--backend" && i + 1 < argc) {
      backends_ = ParseBackends(argv[i + 1], name_);
      ++i;
    } else if (arg == "--backend") {
      std::fprintf(stderr, "%s: --backend needs a value\n", name_.c_str());
      backends_ = ParseBackends("", name_);  // prints usage and exits
    } else if (arg.rfind("--backend=", 0) == 0) {
      backends_ = ParseBackends(std::string(arg.substr(10)), name_);
    }
  }
  if (backends_.empty()) {
    backends_ = {FlushBackendKind::kIpi, FlushBackendKind::kQueue};
  }
  if (check_) {
    // Before any System exists: every simulation this process runs gets a
    // CheckContext, publishing into the global sink Finish() drains.
    EnableTlbCheckEverywhere();
  }
  root_ = Json::Object();
  root_["bench"] = name_;
  root_["schema_version"] = 1;
}

void BenchReport::AddRow(Json row) {
  Json& rows = root_["rows"];
  if (rows.type() != Json::Type::kArray) {
    rows = Json::Array();
  }
  rows.Append(std::move(row));
}

void BenchReport::Snapshot(System& system, const char* key) {
  root_[key] = SystemMetricsJson(system);
}

void BenchReport::Set(const char* key, Json value) { root_[key] = std::move(value); }

int BenchReport::Finish(int rc) {
  if (check_) {
    root_["tlbcheck"] = GlobalTlbCheckReport();
    uint64_t violations = GlobalTlbCheckViolationCount();
    if (violations > 0 && rc == 0) {
      std::fprintf(stderr, "BenchReport: tlbcheck found %llu violation(s)\n",
                   static_cast<unsigned long long>(violations));
      rc = 1;
    }
  }
  root_["status"] = rc == 0 ? "pass" : "fail";
  if (path_.empty()) {
    return rc;
  }
  std::filesystem::path p(path_);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);  // best effort
  }
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "BenchReport: cannot open %s for writing\n", path_.c_str());
    return rc != 0 ? rc : 1;
  }
  std::string doc = root_.Dump(2);
  doc.push_back('\n');
  out << doc;
  out.close();
  if (!out) {
    std::fprintf(stderr, "BenchReport: failed writing %s\n", path_.c_str());
    return rc != 0 ? rc : 1;
  }
  std::fprintf(stderr, "BenchReport: wrote %s\n", path_.c_str());
  return rc;
}

}  // namespace tlbsim
