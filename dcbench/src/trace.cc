#include "trace.hh"

#include <chrono>
#include <cstdio>

#include "bench.hh"

namespace dcbench
{

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

Tracer::Tracer() : originNs_(0) { originNs_ = nowNs(); }

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() -
        originNs_;
}

int
Tracer::open(const std::string &layer, const std::string &name)
{
    Span span;
    span.layer = layer;
    span.name = name;
    span.request = request_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.beginNs = nowNs();
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int span)
{
    spans_[span].endNs = nowNs();
    // Spans close innermost-first; tolerate a skipped close (a pass
    // that failed before its end hook) by unwinding to this span.
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        if (top == span)
            break;
    }
}

void
Tracer::instant(const std::string &layer, const std::string &name)
{
    Span span;
    span.layer = layer;
    span.name = name;
    span.request = request_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.beginNs = span.endNs = nowNs();
    span.instant = true;
    spans_.push_back(std::move(span));
}

LayerMillis
Tracer::selfMillis(std::size_t from) const
{
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i)
        self[i] = (spans_[i].endNs - spans_[i].beginNs) / 1e6;
    for (std::size_t i = from; i < spans_.size(); ++i) {
        const int parent = spans_[i].parent;
        if (parent >= static_cast<int>(from))
            self[parent] -= (spans_[i].endNs - spans_[i].beginNs) / 1e6;
    }
    LayerMillis by_layer;
    for (std::size_t i = from; i < spans_.size(); ++i)
        if (!spans_[i].instant)
            by_layer[spans_[i].layer] += self[i];
    return by_layer;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        std::fprintf(file,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                     "\"ts\":%.3f,",
                     i == 0 ? "" : ",", jsonEscape(span.name).c_str(),
                     jsonEscape(span.layer).c_str(),
                     span.instant ? "i" : "X", span.beginNs / 1e3);
        if (span.instant)
            std::fprintf(file, "\"s\":\"t\",");
        else
            std::fprintf(file, "\"dur\":%.3f,",
                         (span.endNs - span.beginNs) / 1e3);
        std::fprintf(file,
                     "\"pid\":1,\"tid\":1,"
                     "\"args\":{\"request\":%llu,\"span\":%zu,"
                     "\"parent\":%d}}",
                     (unsigned long long)span.request, i, span.parent);
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
}

std::string
layerOfPass(const std::string &pass)
{
    if (pass == "Transpile" || pass == "PatternBuild" ||
        pass == "PatternStream")
        return "pattern";
    if (pass == "Partition")
        return "partition";
    if (pass == "PlaceLocal")
        return "place_local";
    if (pass == "PlaceBaseline")
        return "place_baseline";
    if (pass == "ScheduleList")
        return "schedule_list";
    if (pass == "RefineBdir")
        return "refine_bdir";
    return "other";
}

double
medianLayer(const std::vector<LayerMillis> &reps, const std::string &layer)
{
    std::vector<double> values;
    for (const LayerMillis &rep : reps) {
        const auto it = rep.find(layer);
        values.push_back(it == rep.end() ? 0.0 : it->second);
    }
    return median(values);
}

void
setPassLayerMetrics(Outcome &outcome, const std::vector<LayerMillis> &reps)
{
    static const char *const kPassLayers[] = {
        "pattern", "partition", "place_local", "place_baseline",
        "schedule_list", "refine_bdir"};
    for (const char *layer : kPassLayers)
        outcome.set(std::string(layer) + ".ms", medianLayer(reps, layer),
                    "ms");
    std::vector<double> share;
    for (const LayerMillis &rep : reps) {
        double total = 0;
        for (const char *layer : kPassLayers)
            if (rep.count(layer))
                total += rep.at(layer);
        if (rep.count("compile"))
            total += rep.at("compile");
        if (total > 0 && rep.count("place_local"))
            share.push_back(rep.at("place_local") / total);
    }
    outcome.set("place_local.compile_share", median(share), "ratio");
}

void
TraceObserver::onPassBegin(const std::string &, const dcmbqc::Pass &pass)
{
    open_.push_back(tracer_.open(layerOfPass(pass.name()), pass.name()));
}

void
TraceObserver::onPassEnd(const std::string &, const dcmbqc::Pass &,
                         const dcmbqc::StageReport &)
{
    if (open_.empty())
        return;
    tracer_.close(open_.back());
    open_.pop_back();
}

void
TraceObserver::onWindow(const std::string &, const dcmbqc::Pass &pass,
                        const dcmbqc::WindowEvent &)
{
    tracer_.instant("stream", std::string(pass.name()) + "/window");
}

} // namespace dcbench
