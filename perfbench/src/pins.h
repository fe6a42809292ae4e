// The correctness oracle's pinned virtual outcomes for the pinned seed.
// Virtual results are deterministic, so every pin is an exact integer
// (microseconds, counts or digests); a mismatch fails the operation.
#ifndef PERFBENCH_PINS_H_
#define PERFBENCH_PINS_H_

#include <cstdint>
#include <string>

#include "src/bench.h"

namespace perfbench {

/// Compares `actual` with the pin named `key` (see pins.cc). On a
/// mismatch, or when no pin is recorded under `key`, appends an error to
/// `batch` and returns false. Options::corrupt_pins shifts every pin by
/// one so that this must fail.
bool CheckPin(const std::string& key, int64_t actual, const Options& options,
              Batch* batch);

}  // namespace perfbench

#endif  // PERFBENCH_PINS_H_
