// Content-addressed result cache for sweep grids.
//
// Every (Scenario, algorithm) cell of a grid has a stable identity:
//
//   key = fnv64( "manet-cache-key/1", cache epoch, algorithm id,
//                canonical scenario text )
//
// The canonical text enumerates *every* semantically relevant Scenario
// field — mobility, network, propagation, fault workload, observability
// level, seed — with doubles rendered as exact IEEE-754 bit patterns, so
// two configs hash equal iff they simulate identically. Presentation-only
// fields (obs trace_path / tag, fleet.duration which run_scenario syncs to
// sim_time) are excluded: they change side outputs, never results.
//
// The cache epoch is the code-version salt: a constant in cache.cpp
// (overridable at run time via $MANET_CACHE_EPOCH). Bump it in the same
// change that moves simulation results without a Scenario field changing;
// every old cell then misses instead of serving stale results. Because it
// lives in the source, every build tree picks a bump up on its next build.
//
// A cell file stores the complete RunResult — including the obs::Snapshot
// and the fault timeline — as a line-oriented text record ending in an
// FNV-1a digest of everything above it. Loads verify the digest and the
// full parse; any mismatch (truncation, edits, partial writes) counts as
// corruption and falls back to recomputation, never silent reuse. Stores
// write to a temp file and rename() so concurrent writers and killed sweeps
// can leave no half-written cell behind.
//
// Soundness rests on the determinism contract (DESIGN.md): a run is a pure
// function of the canonical text + code version, which is exactly what the
// key hashes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>

#include "scenario/scenario.h"

namespace manet::scenario {

/// The active code-version salt: $MANET_CACHE_EPOCH when set and non-empty,
/// else the epoch constant compiled into cache.cpp.
std::string cache_epoch();

/// Exact, complete, machine-oriented serialization of a Scenario (doubles
/// as bit patterns; excludes fleet.duration). obs trace_path / tag are
/// included when set — the .meta provenance sidecars record them — but
/// cache_key() strips them first. decode_canonical_scenario() round-trips
/// bit-exactly.
std::string canonical_scenario_text(const Scenario& s);
Scenario decode_canonical_scenario(const std::string& text);

/// The content address of one (scenario, algorithm) cell, as 16 hex chars.
/// Deterministic across processes and --jobs values; distinct for any
/// semantic field change, seed change, or epoch bump.
std::string cache_key(const Scenario& s, const std::string& algorithm);

/// Cell file name under the cache dir: "<alg>-s<seed>-<key>.cell" (the
/// algorithm prefix is sanitized and cosmetic; identity is the key).
std::string cache_cell_filename(const Scenario& s,
                                const std::string& algorithm);

/// Serializes a RunResult as a cell record (trailing integrity digest).
std::string encode_cell(const RunResult& result);
/// Parses and digest-checks a cell record; throws CheckError on any
/// malformation. decode(encode(r)) == r, bit-exact.
RunResult decode_cell(const std::string& text);

/// Human-readable description of the first line where two line-oriented
/// records (cell or canonical-scenario text) diverge, naming the "key =
/// value" field when one is present — the diagnostic behind --resume-verify
/// mismatches and scrub reports. Empty string when the records are
/// byte-identical.
std::string first_cell_difference(const std::string& fresh,
                                  const std::string& cached);

/// Provenance sidecar of a cell ("<cell filename>.meta"): the algorithm
/// label and the exact canonical scenario text the cell was computed from.
/// Cells are pure outputs and do not embed their inputs, so this sidecar is
/// what makes scrub_cache() able to *repair* a corrupt cell by recompute.
std::string encode_cell_meta(const std::string& algorithm,
                             const std::string& scenario_text);
/// Parses a meta sidecar; throws CheckError on malformation.
struct CellMeta {
  std::string algorithm;
  std::string scenario_text;
};
CellMeta decode_cell_meta(const std::string& text);

/// Lookup / store counters of one Runner::execute pass (also exposed via
/// Runner::cache_stats() for tests and tooling).
struct CacheStats {
  std::size_t hits = 0;      // cells served from the cache
  std::size_t misses = 0;    // absent cells (computed and stored)
  std::size_t stores = 0;    // cells written
  std::size_t corrupt = 0;   // digest/parse failures -> recomputed
  std::size_t verified = 0;  // --resume byte-verifications that passed
};

class ResultCache {
 public:
  /// Opens (creating if needed) the cache directory. Throws CheckError when
  /// the directory cannot be created.
  explicit ResultCache(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string path_for(const std::string& filename) const;

  /// Loads and fully verifies a cell. A digest or parse failure logs a
  /// warning, counts as corruption and reads as a miss — the caller
  /// recomputes and overwrites. When `raw_text` is non-null it receives the
  /// verified on-disk bytes (for --resume byte-verification).
  std::optional<RunResult> load(const std::string& filename,
                                std::string* raw_text = nullptr);

  /// Atomically writes a cell (temp file + rename). When `meta_text` is
  /// non-empty, a "<filename>.meta" provenance sidecar (encode_cell_meta
  /// output) is published the same way, enabling scrub repair. Thread-safe.
  void store(const std::string& filename, const RunResult& result,
             const std::string& meta_text = {});

  void note_verified();
  CacheStats stats() const;

 private:
  std::string dir_;
  mutable std::mutex mu_;
  CacheStats stats_;
  unsigned tmp_seq_ = 0;
};

/// Outcome of one scrub_cache() pass over a cache directory.
struct ScrubReport {
  std::size_t scanned = 0;       // .cell files examined
  std::size_t ok = 0;            // digest + parse verified
  std::size_t corrupt = 0;       // failed verification -> quarantine/
  std::size_t repaired = 0;      // recomputed from a .meta sidecar
  std::size_t unrepairable = 0;  // corrupt with no usable sidecar
  std::size_t stray_tmp = 0;     // leftover .tmp-* files -> quarantine/
};

/// Integrity sweep over a cache directory: digest-verifies every *.cell
/// file (in sorted filename order, so reports are deterministic), moves
/// each corrupt cell — and any stray .tmp-* leftover from a killed sweep —
/// into a "quarantine/" subdirectory alongside its sidecar. With `repair`,
/// a quarantined cell whose .meta sidecar survives is recomputed from its
/// recorded scenario and re-published under its canonical filename.
/// Progress lines go to `log` when non-null. Throws CheckError when `dir`
/// is not a directory.
ScrubReport scrub_cache(const std::string& dir, bool repair,
                        std::ostream* log = nullptr);

}  // namespace manet::scenario
