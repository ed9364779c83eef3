#include "sim/statevector.hh"

#include <array>
#include <cmath>

#include "common/logging.hh"
#include "sim/kernel_config.hh"
#include "sim/sv_kernels.hh"

namespace dcmbqc
{

namespace
{

constexpr double pi = 3.14159265358979323846;
const std::complex<double> iunit(0.0, 1.0);
constexpr double invSqrt2 = 0.70710678118654752440;

using Mat2 = std::array<StateVector::Amplitude, 4>;

/**
 * The 2x2 matrix of a single-qubit gate, with the same constant
 * expressions the apply* methods use (so a fused run of length one
 * is bit-identical to the unfused application). Returns false for
 * multi-qubit gates.
 */
bool
gateMatrix1q(const Gate &gate, Mat2 &m)
{
    switch (gate.kind) {
      case GateKind::H:
        m = {invSqrt2, invSqrt2, invSqrt2, -invSqrt2};
        return true;
      case GateKind::X:
        m = {0, 1, 1, 0};
        return true;
      case GateKind::Y:
        m = {0, -iunit, iunit, 0};
        return true;
      case GateKind::Z:
        m = {1, 0, 0, -1};
        return true;
      case GateKind::S:
        m = {1, 0, 0, iunit};
        return true;
      case GateKind::Sdg:
        m = {1, 0, 0, -iunit};
        return true;
      case GateKind::T:
        m = {1, 0, 0, std::exp(iunit * (pi / 4))};
        return true;
      case GateKind::Tdg:
        m = {1, 0, 0, std::exp(-iunit * (pi / 4))};
        return true;
      case GateKind::RX: {
        const double c = std::cos(gate.angle / 2);
        const double s = std::sin(gate.angle / 2);
        m = {c, -iunit * s, -iunit * s, c};
        return true;
      }
      case GateKind::RY: {
        const double c = std::cos(gate.angle / 2);
        const double s = std::sin(gate.angle / 2);
        m = {c, -s, s, c};
        return true;
      }
      case GateKind::RZ:
        m = {std::exp(-iunit * (gate.angle / 2)), 0, 0,
             std::exp(iunit * (gate.angle / 2))};
        return true;
      default:
        return false;
    }
}

/** m <- a * m (compose gate a after the pending matrix m). */
void
composeLeft(const Mat2 &a, Mat2 &m)
{
    const Mat2 prev = m;
    m[0] = a[0] * prev[0] + a[1] * prev[2];
    m[1] = a[0] * prev[1] + a[1] * prev[3];
    m[2] = a[2] * prev[0] + a[3] * prev[2];
    m[3] = a[2] * prev[1] + a[3] * prev[3];
}

} // namespace

StateVector::StateVector() : numQubits_(0), amps_(1, 1.0)
{
}

StateVector::StateVector(int num_qubits, bool plus_basis)
    : numQubits_(num_qubits),
      amps_(static_cast<std::size_t>(1) << num_qubits, 0.0)
{
    DCMBQC_ASSERT(num_qubits >= 0 && num_qubits <= 26,
                  "statevector limited to 26 qubits");
    if (plus_basis) {
        const double amp =
            1.0 / std::sqrt(static_cast<double>(amps_.size()));
        for (auto &a : amps_)
            a = amp;
    } else {
        amps_[0] = 1.0;
    }
}

int
StateVector::addQubitZero()
{
    amps_.resize(amps_.size() * 2, 0.0);
    return numQubits_++;
}

int
StateVector::addQubitPlus()
{
    const std::size_t half = amps_.size();
    amps_.resize(half * 2);
    for (std::size_t i = 0; i < half; ++i) {
        const Amplitude value = amps_[i] * invSqrt2;
        amps_[i] = value;
        amps_[i + half] = value;
    }
    return numQubits_++;
}

void
StateVector::apply1q(int q, Amplitude m00, Amplitude m01, Amplitude m10,
                     Amplitude m11)
{
    DCMBQC_ASSERT(q >= 0 && q < numQubits_, "apply1q: bad qubit ", q);
    const Amplitude m[4] = {m00, m01, m10, m11};
    sv::apply1q(amps_.data(), amps_.size(), q, m);
}

void
StateVector::applyH(int q)
{
    apply1q(q, invSqrt2, invSqrt2, invSqrt2, -invSqrt2);
}

void
StateVector::applyX(int q)
{
    apply1q(q, 0, 1, 1, 0);
}

void
StateVector::applyY(int q)
{
    apply1q(q, 0, -iunit, iunit, 0);
}

void
StateVector::applyZ(int q)
{
    apply1q(q, 1, 0, 0, -1);
}

void
StateVector::applyS(int q)
{
    apply1q(q, 1, 0, 0, iunit);
}

void
StateVector::applySdg(int q)
{
    apply1q(q, 1, 0, 0, -iunit);
}

void
StateVector::applyT(int q)
{
    apply1q(q, 1, 0, 0, std::exp(iunit * (pi / 4)));
}

void
StateVector::applyTdg(int q)
{
    apply1q(q, 1, 0, 0, std::exp(-iunit * (pi / 4)));
}

void
StateVector::applyRX(int q, double theta)
{
    const double c = std::cos(theta / 2);
    const double s = std::sin(theta / 2);
    apply1q(q, c, -iunit * s, -iunit * s, c);
}

void
StateVector::applyRY(int q, double theta)
{
    const double c = std::cos(theta / 2);
    const double s = std::sin(theta / 2);
    apply1q(q, c, -s, s, c);
}

void
StateVector::applyRZ(int q, double theta)
{
    apply1q(q, std::exp(-iunit * (theta / 2)), 0, 0,
            std::exp(iunit * (theta / 2)));
}

void
StateVector::applyCZ(int a, int b)
{
    DCMBQC_ASSERT(a != b && a >= 0 && b >= 0 && a < numQubits_ &&
                      b < numQubits_,
                  "applyCZ: bad qubits");
    const std::size_t mask = (static_cast<std::size_t>(1) << a) |
                             (static_cast<std::size_t>(1) << b);
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & mask) == mask)
            amps_[i] = -amps_[i];
}

void
StateVector::applyCNOT(int control, int target)
{
    const std::size_t cbit = static_cast<std::size_t>(1) << control;
    const std::size_t tbit = static_cast<std::size_t>(1) << target;
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & cbit) && !(i & tbit))
            std::swap(amps_[i], amps_[i | tbit]);
}

void
StateVector::applyCP(int a, int b, double theta)
{
    const std::size_t mask = (static_cast<std::size_t>(1) << a) |
                             (static_cast<std::size_t>(1) << b);
    const Amplitude phase = std::exp(iunit * theta);
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & mask) == mask)
            amps_[i] *= phase;
}

void
StateVector::applyRZZ(int a, int b, double theta)
{
    const std::size_t abit = static_cast<std::size_t>(1) << a;
    const std::size_t bbit = static_cast<std::size_t>(1) << b;
    const Amplitude plus = std::exp(-iunit * (theta / 2));
    const Amplitude minus = std::exp(iunit * (theta / 2));
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        const bool za = (i & abit) != 0;
        const bool zb = (i & bbit) != 0;
        amps_[i] *= (za == zb) ? plus : minus;
    }
}

void
StateVector::applySWAP(int a, int b)
{
    const std::size_t abit = static_cast<std::size_t>(1) << a;
    const std::size_t bbit = static_cast<std::size_t>(1) << b;
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & abit) && !(i & bbit))
            std::swap(amps_[i], amps_[(i & ~abit) | bbit]);
}

void
StateVector::applyCCX(int c0, int c1, int target)
{
    const std::size_t mask = (static_cast<std::size_t>(1) << c0) |
                             (static_cast<std::size_t>(1) << c1);
    const std::size_t tbit = static_cast<std::size_t>(1) << target;
    for (std::size_t i = 0; i < amps_.size(); ++i)
        if ((i & mask) == mask && !(i & tbit))
            std::swap(amps_[i], amps_[i | tbit]);
}

void
StateVector::applyGate(const Gate &gate)
{
    switch (gate.kind) {
      case GateKind::H: applyH(gate.q0); break;
      case GateKind::X: applyX(gate.q0); break;
      case GateKind::Y: applyY(gate.q0); break;
      case GateKind::Z: applyZ(gate.q0); break;
      case GateKind::S: applyS(gate.q0); break;
      case GateKind::Sdg: applySdg(gate.q0); break;
      case GateKind::T: applyT(gate.q0); break;
      case GateKind::Tdg: applyTdg(gate.q0); break;
      case GateKind::RX: applyRX(gate.q0, gate.angle); break;
      case GateKind::RY: applyRY(gate.q0, gate.angle); break;
      case GateKind::RZ: applyRZ(gate.q0, gate.angle); break;
      case GateKind::CZ: applyCZ(gate.q0, gate.q1); break;
      case GateKind::CNOT: applyCNOT(gate.q0, gate.q1); break;
      case GateKind::CP: applyCP(gate.q0, gate.q1, gate.angle); break;
      case GateKind::RZZ: applyRZZ(gate.q0, gate.q1, gate.angle); break;
      case GateKind::SWAP: applySWAP(gate.q0, gate.q1); break;
      case GateKind::CCX: applyCCX(gate.q0, gate.q1, gate.q2); break;
    }
}

void
StateVector::applyCircuit(const Circuit &circuit)
{
    DCMBQC_ASSERT(circuit.numQubits() <= numQubits_,
                  "circuit wider than register");
    if (!simKernelConfig().fuseGates) {
        for (const auto &gate : circuit.gates())
            applyGate(gate);
        return;
    }

    // Fuse runs of single-qubit gates per qubit into one 2x2 matrix
    // so each run costs a single amplitude sweep; a multi-qubit gate
    // flushes only the qubits it touches.
    std::vector<Mat2> pending(numQubits_);
    std::vector<char> hasPending(numQubits_, 0);
    auto flush = [&](int q) {
        if (q >= 0 && q < numQubits_ && hasPending[q]) {
            hasPending[q] = 0;
            apply1q(q, pending[q][0], pending[q][1], pending[q][2],
                    pending[q][3]);
        }
    };

    for (const auto &gate : circuit.gates()) {
        Mat2 m;
        if (gateMatrix1q(gate, m)) {
            if (hasPending[gate.q0])
                composeLeft(m, pending[gate.q0]);
            else
                pending[gate.q0] = m;
            hasPending[gate.q0] = 1;
            continue;
        }
        flush(gate.q0);
        flush(gate.q1);
        flush(gate.q2);
        applyGate(gate);
    }
    for (int q = 0; q < numQubits_; ++q)
        flush(q);
}

MeasureResult
StateVector::measureAndRemove(int q, Amplitude b0, Amplitude b1, Rng &rng,
                              int forced_outcome)
{
    DCMBQC_ASSERT(q >= 0 && q < numQubits_, "measure: bad qubit ", q);
    const std::size_t stride = static_cast<std::size_t>(1) << q;
    const std::size_t half = amps_.size() / 2;

    // Projection amplitude onto basis vector (b0, b1) for outcome 0
    // and its orthogonal complement (b0, -b1) for outcome 1 -- valid
    // because our XY / Z bases always have |b0| = |b1| or b1 = 0.
    auto project = [&](Amplitude k0, Amplitude k1,
                       std::vector<Amplitude> &out) {
        out.assign(half, 0.0);
        double prob = 0.0;
        for (std::size_t r = 0; r < half; ++r) {
            // Insert bit 0/1 at position q of r.
            const std::size_t low = r & (stride - 1);
            const std::size_t high = (r >> q) << (q + 1);
            const std::size_t i0 = high | low;
            const std::size_t i1 = i0 | stride;
            const Amplitude value =
                std::conj(k0) * amps_[i0] + std::conj(k1) * amps_[i1];
            out[r] = value;
            prob += std::norm(value);
        }
        return prob;
    };

    std::vector<Amplitude> collapsed0;
    const double p0 = project(b0, b1, collapsed0);

    int outcome;
    if (forced_outcome >= 0) {
        outcome = forced_outcome;
    } else {
        outcome = rng.uniform() < p0 ? 0 : 1;
    }

    double prob = outcome == 0 ? p0 : 1.0 - p0;
    std::vector<Amplitude> collapsed;
    if (outcome == 0) {
        collapsed = std::move(collapsed0);
    } else {
        prob = project(b0, -b1, collapsed);
    }
    DCMBQC_ASSERT(prob > 1e-12, "measured a zero-probability branch");

    const double scale = 1.0 / std::sqrt(prob);
    for (auto &a : collapsed)
        a *= scale;
    amps_ = std::move(collapsed);
    --numQubits_;
    return {outcome, prob};
}

MeasureResult
StateVector::measureXYAndRemove(int q, double theta, Rng &rng,
                                int forced_outcome)
{
    const Amplitude b0 = invSqrt2;
    const Amplitude b1 = std::exp(iunit * theta) * invSqrt2;
    return measureAndRemove(q, b0, b1, rng, forced_outcome);
}

MeasureResult
StateVector::measureZAndRemove(int q, Rng &rng, int forced_outcome)
{
    // Z basis: |0> = (1, 0), orthogonal (0, 1). measureAndRemove's
    // complement convention (b0, -b1) does not produce (0, 1) from
    // (1, 0), so handle Z directly via the XY trick: measuring Z is
    // H then X-basis, but simpler to special-case here.
    DCMBQC_ASSERT(q >= 0 && q < numQubits_, "measureZ: bad qubit ", q);
    const std::size_t stride = static_cast<std::size_t>(1) << q;
    const std::size_t half = amps_.size() / 2;

    auto extract = [&](int bit, std::vector<Amplitude> &out) {
        out.assign(half, 0.0);
        double prob = 0.0;
        for (std::size_t r = 0; r < half; ++r) {
            const std::size_t low = r & (stride - 1);
            const std::size_t high = (r >> q) << (q + 1);
            const std::size_t idx = (high | low) | (bit ? stride : 0);
            out[r] = amps_[idx];
            prob += std::norm(out[r]);
        }
        return prob;
    };

    std::vector<Amplitude> c0;
    const double p0 = extract(0, c0);
    int outcome = forced_outcome >= 0
        ? forced_outcome : (rng.uniform() < p0 ? 0 : 1);
    double prob = outcome == 0 ? p0 : 1.0 - p0;
    std::vector<Amplitude> collapsed;
    if (outcome == 0)
        collapsed = std::move(c0);
    else
        prob = extract(1, collapsed);
    DCMBQC_ASSERT(prob > 1e-12, "measured a zero-probability branch");
    const double scale = 1.0 / std::sqrt(prob);
    for (auto &a : collapsed)
        a *= scale;
    amps_ = std::move(collapsed);
    --numQubits_;
    return {outcome, prob};
}

double
StateVector::norm() const
{
    double total = 0.0;
    for (const auto &a : amps_)
        total += std::norm(a);
    return total;
}

double
StateVector::fidelity(const StateVector &a, const StateVector &b)
{
    DCMBQC_ASSERT(a.numQubits_ == b.numQubits_,
                  "fidelity: qubit count mismatch");
    Amplitude inner = 0.0;
    for (std::size_t i = 0; i < a.amps_.size(); ++i)
        inner += std::conj(a.amps_[i]) * b.amps_[i];
    return std::norm(inner);
}

StateVector
StateVector::permuted(const std::vector<int> &new_order) const
{
    DCMBQC_ASSERT(static_cast<int>(new_order.size()) == numQubits_,
                  "permuted: order size mismatch");
    StateVector result(numQubits_);
    result.amps_.assign(amps_.size(), 0.0);
    for (std::size_t i = 0; i < amps_.size(); ++i) {
        std::size_t j = 0;
        for (int bit = 0; bit < numQubits_; ++bit)
            if (i & (static_cast<std::size_t>(1) << new_order[bit]))
                j |= static_cast<std::size_t>(1) << bit;
        result.amps_[j] = amps_[i];
    }
    return result;
}

} // namespace dcmbqc
