// Application-level operations on the two-level resource hierarchy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/types.hpp"

namespace hlock::lockmgr {

/// The five operation classes of the paper's workload (§4). Each maps to
/// the table-lock mode mix IR/R/U/IW/W = 80/10/4/5/1 %.
enum class OpKind : std::uint8_t {
  kEntryRead,     ///< IR on the table, then R on one entry
  kTableRead,     ///< R on the table
  kTableUpgrade,  ///< U on the table, read, upgrade to W, write
  kEntryWrite,    ///< IW on the table, then W on one entry
  kTableWrite,    ///< W on the table
};
inline constexpr std::size_t kOpKindCount =
    static_cast<std::size_t>(OpKind::kTableWrite) + 1;

const char* to_string(OpKind k);

struct Op {
  OpKind kind{OpKind::kEntryRead};
  /// Target row for entry ops; ignored by table-level ops.
  std::uint32_t entry{0};
  /// Critical-section dwell time (total across both upgrade phases).
  Duration cs{0};
};

/// Completion record for one executed Op.
struct OpStats {
  Op op{};
  /// Issue time -> all locks held (critical section entered).
  Duration acquire_latency{0};
  /// Lock requests issued to execute the op (ours: one per plan step;
  /// Naimi same work: 1 or entry_count; Naimi pure: 1).
  std::uint32_t lock_requests{0};
};

using DoneFn = std::function<void(const OpStats&)>;

}  // namespace hlock::lockmgr
