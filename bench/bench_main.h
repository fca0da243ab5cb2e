// main() body for the google-benchmark per-kernel bench (micro_kernels):
// defaults the run to machine-readable JSON output (BENCH_kernels.json)
// unless the caller already passed --benchmark_out.
//
// The JSON is published ATOMICALLY: the run writes to <out>.tmp and only
// renames it over the final path after verifying the file is non-empty
// and terminates like a JSON document. A crashed or OOM-killed bench can
// therefore never leave a 0-byte or half-written BENCH_*.json behind, and
// an empty/partial emission fails the run (non-zero exit) instead of
// silently shipping garbage.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "base/build_info.h"
#include "base/parallel.h"
#include "nn/conv_kernels.h"

namespace antidote::bench {

// Run-metadata JSON object of BENCH_kernels.json: schema version (bump
// kBenchSchemaVersion when the bench's fields change meaning), the
// build's `git describe`, the thread count the pool actually uses and the
// SIMD ISA the kernels were compiled for. Downstream tooling can refuse
// to diff runs whose meta blocks disagree.
inline std::string bench_meta_json() {
  std::ostringstream os;
  os << "{\"schema_version\": " << kBenchSchemaVersion << ", \"git\": \""
     << build_git_describe() << "\", \"threads\": " << (global_pool().size() + 1)
     << ", \"simd_isa\": \"" << nn::simd_isa_name()
     << "\", \"simd_lanes\": " << nn::simd_lane_width()
     << ", \"int8_isa\": \"" << nn::int8_isa_name()
     << "\", \"avx512_vnni\": "
     << (nn::cpu_supports_vnni() ? "true" : "false") << "}";
  return os.str();
}

// Splices `"meta": {...}` immediately after the opening `{` of the
// google-benchmark JSON document at `path`. Returns false when the file
// can't be read back or doesn't open with `{`.
inline bool inject_meta_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string doc = buf.str();
  in.close();
  const size_t brace = doc.find('{');
  if (brace == std::string::npos) return false;
  doc.insert(brace + 1, "\n  \"meta\": " + bench_meta_json() + ",");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << doc;
  return out.good();
}

// True when the file is non-empty and its last non-whitespace byte closes
// a JSON object — the cheap structural check that catches truncation.
inline bool looks_like_complete_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char tail[64];
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return false;
  }
  const long take = size < static_cast<long>(sizeof(tail)) ? size : static_cast<long>(sizeof(tail));
  std::fseek(f, -take, SEEK_END);
  const size_t got = std::fread(tail, 1, static_cast<size_t>(take), f);
  std::fclose(f);
  for (size_t i = got; i-- > 0;) {
    const char c = tail[i];
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t') continue;
    return c == '}';
  }
  return false;
}

// Atomically publishes tmp_path over final_path after validating it.
// Returns false (and removes the temp file) on empty/partial output.
inline bool publish_json_atomically(const std::string& tmp_path,
                                    const std::string& final_path) {
  std::error_code ec;
  if (!looks_like_complete_json(tmp_path)) {
    std::fprintf(stderr,
                 "ERROR: bench JSON emission empty or truncated (%s); "
                 "refusing to publish %s\n",
                 tmp_path.c_str(), final_path.c_str());
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::fprintf(stderr, "ERROR: failed to publish %s: %s\n",
                 final_path.c_str(), ec.message().c_str());
    return false;
  }
  return true;
}

inline int run_benchmarks(int argc, char** argv, const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  const std::string tmp_path = std::string(default_out) + ".tmp";
  std::string out_flag = "--benchmark_out=" + tmp_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) {
    if (!inject_meta_json(tmp_path)) {
      std::fprintf(stderr,
                   "ERROR: could not inject run metadata into %s\n",
                   tmp_path.c_str());
      return 1;
    }
    if (!publish_json_atomically(tmp_path, default_out)) return 1;
  }
  return 0;
}

}  // namespace antidote::bench
