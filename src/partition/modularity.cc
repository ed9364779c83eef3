#include "partition/modularity.hh"

#include <vector>

namespace dcmbqc
{

double
modularity(const Graph &g, const Partitioning &p)
{
    // Integer tallies: every partial sum is exact, so the result is
    // the same whatever order the edges are visited in.
    long long m = 0;
    std::vector<long long> intra(p.numParts(), 0);
    std::vector<long long> degree(p.numParts(), 0);
    for (const auto &e : g.edges()) {
        const int pu = p.part(e.u);
        const int pv = p.part(e.v);
        m += e.weight;
        degree[pu] += e.weight;
        degree[pv] += e.weight;
        if (pu == pv)
            intra[pu] += e.weight;
    }
    if (m <= 0)
        return 0.0;

    const double total = static_cast<double>(m);
    double q = 0.0;
    for (int c = 0; c < p.numParts(); ++c) {
        const double ec = static_cast<double>(intra[c]) / total;
        const double dc = static_cast<double>(degree[c]) / (2.0 * total);
        q += ec - dc * dc;
    }
    return q;
}

} // namespace dcmbqc
