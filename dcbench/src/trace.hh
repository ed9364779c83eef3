/**
 * @file
 * Span recorder of the traced runs. Spans are recorded by the
 * benchmark around its own calls into each layer (pass spans come
 * from a PassObserver), kept in memory, and written out once as
 * Chrome trace-event JSON. Every span carries the id of the request
 * that caused it and the index of its parent span, so a layer's self
 * time is its duration minus the time its children cover.
 *
 * Not thread-safe: the benchmark issues every traced call from its
 * main thread, and CompilerDriver serializes observer callbacks.
 */

#ifndef DCBENCH_TRACE_HH
#define DCBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/pass.hh"

namespace dcbench
{

/** Self time by layer, ms. */
using LayerMillis = std::map<std::string, double>;

struct Span
{
    std::string layer;
    std::string name;
    std::uint64_t request = 0;
    int parent = -1;
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;

    /** Instant events (window checkpoints) have no duration. */
    bool instant = false;
};

class Tracer
{
  public:
    Tracer();

    /** Start a new request id; spans opened after it carry it. */
    void beginRequest() { ++request_; }

    /** Open a span under the innermost open span. */
    int open(const std::string &layer, const std::string &name);

    void close(int span);

    /** Record a zero-length event under the innermost open span. */
    void instant(const std::string &layer, const std::string &name);

    /** Number of spans recorded so far (a mark for `selfMillis`). */
    std::size_t size() const { return spans_.size(); }

    /**
     * Self time per layer, ms, over spans [from, size()): each
     * span's duration minus its direct children's durations.
     */
    LayerMillis selfMillis(std::size_t from) const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::uint64_t request_ = 0;
    std::int64_t originNs_ = 0;
};

/** RAII span; a null tracer makes it a no-op (the untraced path). */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const std::string &layer,
              const std::string &name)
        : tracer_(tracer),
          span_(tracer ? tracer->open(layer, name) : -1)
    {
    }

    ~SpanScope()
    {
        if (tracer_)
            tracer_->close(span_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *tracer_;
    int span_;
};

/** Layer a compiler pass belongs to ("PlaceLocal" -> "place_local"). */
std::string layerOfPass(const std::string &pass);

/** Median over reps of one layer's self ms (absent counts as 0). */
double medianLayer(const std::vector<LayerMillis> &reps,
                   const std::string &layer);

struct Outcome;

/**
 * Set `<layer>.ms` (median self time per rep) for every compiler
 * pass layer, plus `place_local.compile_share`: PlaceLocal's share
 * of the compile's self time (the "compile" request span and every
 * pass span).
 */
void setPassLayerMetrics(Outcome &outcome,
                         const std::vector<LayerMillis> &reps);

/**
 * Records one span per pass plus one instant event per streaming
 * window.
 */
class TraceObserver : public dcmbqc::PassObserver
{
  public:
    explicit TraceObserver(Tracer &tracer) : tracer_(tracer) {}

    void onPassBegin(const std::string &label,
                     const dcmbqc::Pass &pass) override;

    void onPassEnd(const std::string &label, const dcmbqc::Pass &pass,
                   const dcmbqc::StageReport &report) override;

    void onWindow(const std::string &label, const dcmbqc::Pass &pass,
                  const dcmbqc::WindowEvent &event) override;

  private:
    Tracer &tracer_;
    std::vector<int> open_;
};

} // namespace dcbench

#endif // DCBENCH_TRACE_HH
