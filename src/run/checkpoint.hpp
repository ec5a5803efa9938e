#pragma once
// Checksummed, atomically written run checkpoints.
//
// Because iteration i's coloring is derived purely from (seed, i)
// (core/coloring.hpp — counter-mode RNG), the complete resumable state
// of a run is tiny: the contiguous completed-iteration prefix and the
// per-job partial sums.  The "RNG stream position" is the iteration
// index itself.  A resumed run therefore reproduces the uninterrupted
// run bit for bit under the same seed, colors, and budget.
//
// File layout (little-endian, fixed-width):
//
//   magic   "FSCKPT01"                     8 B
//   kind    u32 (1; 0 marks the count-only files of earlier builds)
//   seed    u64
//   colors  u32
//   fprint  u64   caller-supplied config fingerprint
//   done    u32   contiguous completed iterations
//   njobs   u32
//   per job: len u32, then len doubles
//   crc     u64   FNV-1a over everything above
//
// Writes go to "<path>.tmp" and are renamed over the target, so a
// crash mid-write leaves the previous checkpoint intact; loads verify
// length, magic, and checksum and reject anything inconsistent with a
// reason string instead of trusting partial data.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fascia::run {

struct Checkpoint {
  /// Earlier builds wrote count_template checkpoints under their own
  /// kind; the iteration driver refuses them on resume.  The constant
  /// still names count runs' files in a directory target.
  static constexpr std::uint32_t kKindCount = 0;
  /// The one format the iteration driver (sched/driver.hpp) writes.
  static constexpr std::uint32_t kKindBatch = 1;

  std::uint32_t kind = kKindBatch;
  std::uint64_t seed = 0;
  std::uint32_t num_colors = 0;

  /// Hash of everything the arrays' meaning depends on (template
  /// canonical forms, graph shape, seed, colors); a resume against a
  /// different configuration is rejected up front.
  std::uint64_t fingerprint = 0;

  /// Contiguous completed iteration prefix (counter-mode RNG position).
  std::uint32_t iterations_done = 0;

  /// Every job's completed per-iteration estimates, then — for
  /// per-vertex count runs — the vertex sums keyed by original ids.
  std::vector<std::vector<double>> per_job;
};

/// FNV-1a incremental mixer for building fingerprints.
std::uint64_t fingerprint_mix(std::uint64_t hash, const void* data,
                              std::size_t size) noexcept;
std::uint64_t fingerprint_mix(std::uint64_t hash,
                              const std::string& text) noexcept;
std::uint64_t fingerprint_mix(std::uint64_t hash,
                              std::uint64_t value) noexcept;
inline constexpr std::uint64_t kFingerprintSeed = 0xcbf29ce484222325ULL;

/// Resolves a checkpoint target that may name a DIRECTORY into a
/// per-job file inside it.  When `path` ends with '/' or names an
/// existing directory, the returned path is
/// `<path>/fascia_<count|batch>_<fingerprint-hex>.ckpt`, so any number
/// of jobs sharing one working directory checkpoint into distinct
/// files (two jobs collide only if their fingerprints match — in which
/// case they ARE the same resumable run).  A plain file path or an
/// empty string is returned unchanged.  count_template and
/// sched::run_batch call this after computing the fingerprint; the
/// server's preemption layer relies on it to park and resume
/// concurrent jobs in one work directory.
std::string resolve_checkpoint_path(const std::string& path,
                                    std::uint32_t kind,
                                    std::uint64_t fingerprint);

/// Serializes and atomically replaces `path`.  Throws
/// Error(kResource) on any write failure (callers treat checkpoints
/// as best-effort and keep running).  Fault site: "checkpoint.write".
void save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Loads and verifies `path`.  Returns nullopt — with a reason in
/// `why` when non-null — for a missing, truncated, corrupt, or
/// unrecognized file.  Never throws on bad content: a damaged
/// checkpoint must degrade to a fresh start, not a crash.
std::optional<Checkpoint> load_checkpoint(const std::string& path,
                                          std::string* why = nullptr);

}  // namespace fascia::run
