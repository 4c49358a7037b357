// Asynchronous trace/report emission off the barrier phase.
//
// PR 2 sharded the per-quantum host pipelines, but every observation sample
// was still either recorded synchronously on the control path or assembled
// into whole-run TimeSeries unions at end-of-run. EventSink keeps the
// observation path off the control path (Alioth-style out-of-band
// monitoring): producers stage records into per-source buffers during the
// sharded phase — no locks, each buffer is owned by exactly one shard task —
// and the engine's post-barrier hook merges the staged records into one
// batch in deterministic (time, source-index) order and hands it to a
// background writer thread, which formats and writes CSV/JSONL
// incrementally. With `async = false` the same batches are written inline at
// the drain point, so the two modes produce byte-identical files for any
// shard count — the determinism proof for the writer-thread merge.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sim/emit.hpp"
#include "sim/types.hpp"

namespace perfcloud::sim {
class Engine;
}

namespace perfcloud::exp {

/// Streams time-sorted (column, t, value) records into the aligned-grid CSV
/// format ("t,<col1>,<col2>,..."; missing cells empty). Rows are keyed by
/// timestamp with sim::kTimeAlignTolS tolerance: a record within the
/// tolerance of the open row joins it (for an already-filled column the
/// later record wins), so timestamps differing by less than the tolerance
/// produce ONE row instead of duplicate rows with spuriously empty cells.
///
/// The writer is incremental: it never buffers more than the single open
/// row, so N samples stream in O(N) time and O(columns) memory — no
/// materialized union grid. An open row is flushed once `seal` proves no
/// more records can join it.
class CsvGridWriter {
 public:
  /// Writes the header row immediately.
  CsvGridWriter(std::ostream& os, std::vector<std::string> columns);

  /// Append one record. Records must arrive sorted by time up to the row
  /// tolerance; a record earlier than the open row throws std::logic_error
  /// rather than silently corrupting the grid.
  void add(std::size_t column, double t, double value);

  /// Declare that every record with time < `watermark` - tolerance has been
  /// added: flushes the open row if it can no longer grow.
  void seal(double watermark);

  /// Flush the open row unconditionally. Idempotent.
  void finish();

  [[nodiscard]] std::size_t rows_written() const { return rows_written_; }

 private:
  void flush_row();

  std::ostream& os_;
  std::vector<std::string> columns_;
  bool row_open_ = false;
  double row_t_ = 0.0;
  std::vector<std::optional<double>> cells_;
  std::size_t rows_written_ = 0;
};

/// The staged, optionally-asynchronous emission sink (see file comment).
///
/// Threading contract (mirrors the shard-pool rules):
///  - Registration: engine thread, during setup; locked at the first drain.
///  - emit_*: only from the shard task (or engine-thread phase) that owns the
///    SourceId; per-source staging makes concurrent emission through
///    *different* sources race-free without any synchronization.
///  - drain/flush/close: engine thread only, outside the sharded phase. The
///    quantum barrier provides the happens-before between the tasks' staged
///    writes and the drain's reads.
class EventSink : public sim::EmitSink {
 public:
  struct Options {
    std::string trace_csv_path;     ///< Empty = trace samples are dropped.
    std::string events_jsonl_path;  ///< Empty = events/counters are dropped.
    /// Background writer thread (true) vs inline writes at the drain point
    /// (false). Output bytes are identical either way.
    bool async = true;
  };

  /// Opens the output files (throws std::runtime_error on failure) and, in
  /// async mode, starts the writer thread.
  explicit EventSink(Options opt);
  ~EventSink() override;

  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;

  // --- Registration (engine thread, setup only) ---
  SourceId add_trace_column(std::string column) override;
  SourceId add_event_source(std::string name) override;

  // --- Emission (owner task only) ---
  void emit_sample(SourceId column, sim::SimTime t, double value) override;
  void emit_event(SourceId source, sim::SimTime t, std::string kind, double value) override;
  void bump_counter(SourceId source, std::string_view key, double delta = 1.0) override;

  // --- Engine-thread drain/flush ---
  /// Post-barrier: merge everything staged during the quantum into one batch
  /// in (time, column/source-index) order — per-source buffers are already
  /// time-ordered, so this is a k-way merge — and hand it to the writer
  /// (queued in async mode, written inline otherwise). `watermark` is the
  /// barrier time: rows at earlier grid times can be finalized, rows at the
  /// watermark stay open for same-time sweeps that fire later.
  void drain(sim::SimTime watermark);

  /// drain(+inf), then block until the writer has retired every queued
  /// batch. Rethrows any writer-thread exception.
  void flush();

  /// flush(), stop the writer, append the summary record (the counters,
  /// merged in source order) to the events file, finalize the CSV grid, and
  /// close the files. Idempotent; the destructor calls it.
  void close();

  /// Wire this sink into `engine`: drain after every sharded barrier, flush
  /// whenever a run returns. The sink must outlive the engine's runs.
  void bind(sim::Engine& engine);

  // --- Introspection ---
  [[nodiscard]] bool async() const { return opt_.async; }
  [[nodiscard]] std::uint64_t samples_recorded() const { return samples_recorded_; }
  [[nodiscard]] std::uint64_t events_recorded() const { return events_recorded_; }
  [[nodiscard]] std::uint64_t batches_drained() const { return batches_drained_; }
  /// Cumulative engine-thread seconds spent inside drain() — the emission
  /// cost left on the barrier phase (merge + handoff in async mode; merge +
  /// formatting + file I/O in sync mode). What bench/micro_emit compares.
  [[nodiscard]] double drain_seconds() const { return drain_seconds_; }

 private:
  struct Sample {
    double t = 0.0;
    std::uint32_t column = 0;
    double value = 0.0;
  };
  struct Event {
    double t = 0.0;
    std::uint32_t source = 0;
    std::string kind;
    double value = 0.0;
  };
  /// One drain's worth of records, fully ordered. Batches partition time, so
  /// concatenating them in drain order is globally ordered.
  struct Batch {
    std::vector<Sample> samples;
    std::vector<Event> events;
    double watermark = 0.0;
  };

  void write_batch(const Batch& batch);
  void writer_loop();

  Options opt_;
  std::ofstream trace_file_;
  std::ofstream events_file_;
  std::unique_ptr<CsvGridWriter> csv_;  ///< Created at the first sample batch.

  std::vector<std::string> columns_;
  std::vector<std::string> source_names_;
  bool registration_locked_ = false;
  bool closed_ = false;

  // Staging: one buffer per column/source, appended only by the owning shard
  // task during the quantum, swapped out by drain() on the engine thread.
  std::vector<std::vector<Sample>> staged_samples_;
  std::vector<std::vector<Event>> staged_events_;
  /// Transparent comparator: bump_counter looks keys up by string_view and
  /// only materializes a std::string on a counter's first-ever bump.
  std::vector<std::map<std::string, double, std::less<>>> counters_;

  // Engine-thread bookkeeping.
  std::uint64_t samples_recorded_ = 0;
  std::uint64_t events_recorded_ = 0;
  std::uint64_t batches_drained_ = 0;
  double drain_seconds_ = 0.0;

  // Writer-thread handoff (async mode). All guarded by mu_.
  std::thread writer_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<Batch> queue_;
  bool shutdown_ = false;
  bool writer_busy_ = false;
  std::exception_ptr writer_error_;
};

}  // namespace perfcloud::exp
