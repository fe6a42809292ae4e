#ifndef BIOPERA_TESTS_TEST_UTIL_H_
#define BIOPERA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace biopera::testing {

/// Seed shift for the randomized suites (chaos sweeps and fuzzers). CI's
/// fault-matrix and tsan jobs rerun them with fresh seeds by exporting
/// BIOPERA_CHAOS_SEED_OFFSET; locally the offset defaults to 0.
inline uint64_t ChaosSeedOffset() {
  const char* env = std::getenv("BIOPERA_CHAOS_SEED_OFFSET");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0;
}

/// Creates a unique temporary directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    auto base = std::filesystem::temp_directory_path() / "biopera_test";
    std::filesystem::create_directories(base);
    for (int attempt = 0; attempt < 1000; ++attempt) {
      auto candidate = base / ("d" + std::to_string(counter_++) + "_" +
                               std::to_string(::getpid()));
      std::error_code ec;
      if (std::filesystem::create_directory(candidate, ec)) {
        path_ = candidate.string();
        return;
      }
    }
    ADD_FAILURE() << "could not create temp dir";
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

// --- File-corruption helpers for fault-injection tests ---------------------

/// Regular files directly inside `dir`, sorted by name.
inline std::vector<std::string> ListDirFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

inline long long FileSizeOf(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? -1 : static_cast<long long>(size);
}

/// XORs one bit into the byte at `offset` (silent no-op past EOF).
inline void FlipBitAt(const std::string& path, long long offset, int bit = 0) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
    int c = std::fgetc(f);
    if (c != EOF) {
      std::fseek(f, static_cast<long>(offset), SEEK_SET);
      std::fputc(c ^ (1 << bit), f);
    }
  }
  std::fclose(f);
}

/// Truncates the file to `len` bytes (models a torn tail).
inline void TruncateAt(const std::string& path, long long len) {
  std::error_code ec;
  std::filesystem::resize_file(path, static_cast<uintmax_t>(len), ec);
}

/// Recursive copy, used to snapshot a store directory before corrupting it.
inline void CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::create_directories(to, ec);
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing,
                        ec);
}

}  // namespace biopera::testing

/// gtest helpers for Status / Result. The status is COPIED: `expr` often
/// is `...().status()`, a reference into a temporary whose lifetime would
/// not survive a reference binding.
#define ASSERT_OK(expr)                                            \
  do {                                                             \
    const ::biopera::Status _st = (expr);                          \
    ASSERT_TRUE(_st.ok()) << "status: " << _st.ToString();         \
  } while (0)

#define EXPECT_OK(expr)                                            \
  do {                                                             \
    const ::biopera::Status _st = (expr);                          \
    EXPECT_TRUE(_st.ok()) << "status: " << _st.ToString();         \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                           \
  auto BIOPERA_CONCAT_(_r_, __LINE__) = (rexpr);                   \
  ASSERT_TRUE(BIOPERA_CONCAT_(_r_, __LINE__).ok())                 \
      << BIOPERA_CONCAT_(_r_, __LINE__).status().ToString();       \
  lhs = std::move(BIOPERA_CONCAT_(_r_, __LINE__)).value()

#endif  // BIOPERA_TESTS_TEST_UTIL_H_
