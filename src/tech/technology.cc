#include "technology.hh"

#include <cmath>
#include <vector>

#include "util/diag.hh"
#include "util/units.hh"

namespace cryo::tech
{

using units::FaradPerMetre;
using units::Kelvin;
using units::Metre;
using units::OhmMetre;
using units::Second;

/*
 * Calibration constants.
 *
 * The paper feeds measured Intel 45 nm wire resistivities at 300 K and
 * 77 K [44, 52] into cryo-wire. We encode those measurements as
 * per-layer (rho300, rho77) anchors; the Bloch-Grüneisen conductor then
 * interpolates every other temperature. Anchors were chosen to
 * reproduce:
 *
 *  - Fig. 5(a): max unrepeated speed-up 2.95x (local), 3.69x
 *    (semi-global) - the long-wire asymptote equals rho300/rho77.
 *  - Fig. 10: 6 mm repeatered global link 3.05x at 77 K.
 *
 * Capacitance per length is ~0.20 fF/um for the narrow layers and
 * 0.328 fF/um for the wide global layer (larger lateral + coupling
 * area); the global value also lands the 2 mm repeatered link on
 * CACTI-NUCA's 0.064 ns at 300 K in the NoC voltage domain
 * (Vdd 1.0 V / Vth 0.468 V, Table 4), i.e. the paper's 4 hops per
 * 4 GHz cycle (12+ at 77 K).
 *
 * The Debye temperature is the thermodynamic 343 K of copper, which
 * leaves headroom for the near-bulk global-layer anchor (pure-phonon
 * limit f(77K) = 0.108 < 0.118).
 */
namespace
{

constexpr Kelvin kDebyeTempCu{343.0};

// Local wire: ~70 nm wide, strong size effects -> smallest 77 K gain.
// rho77/rho300 = 1/2.95 = 0.339.
constexpr OhmMetre kRhoLocal300{4.00e-8};
constexpr OhmMetre kRhoLocal77{1.356e-8};

// Semi-global wire: ~140 nm. rho77/rho300 = 1/3.69 = 0.271.
constexpr OhmMetre kRhoSemi300{2.80e-8};
constexpr OhmMetre kRhoSemi77{0.759e-8};

// Global wire: ~400 nm, near-bulk behaviour. Ratio 0.118 makes the
// re-optimized repeatered 6 mm link 3.05x faster at 77 K (Fig. 10).
constexpr OhmMetre kRhoGlobal300{2.20e-8};
constexpr OhmMetre kRhoGlobal77{0.2596e-8};

} // namespace

Technology
Technology::freePdk45(MosfetParams mosfet_params)
{
    using namespace units;
    Mosfet mosfet{std::move(mosfet_params)};

    WireSpec local{
        WireLayer::Local, 70 * nm, 140 * nm, 0.20 * fF / um,
        Conductor{kRhoLocal300, kRhoLocal77, kDebyeTempCu}};
    WireSpec semi{
        WireLayer::SemiGlobal, 140 * nm, 280 * nm, 0.20 * fF / um,
        Conductor{kRhoSemi300, kRhoSemi77, kDebyeTempCu}};
    WireSpec global{
        WireLayer::Global, 400 * nm, 800 * nm, 0.328 * fF / um,
        Conductor{kRhoGlobal300, kRhoGlobal77, kDebyeTempCu}};

    return Technology{std::move(mosfet), std::move(local), std::move(semi),
                      std::move(global)};
}

Technology
Technology::scaledNode(double node_nm, bool thick_wire_mitigation,
                       MosfetParams mosfet_params)
{
    using namespace units;
    fatalIf(node_nm < 5.0 || node_nm > 90.0,
            "node must be in the 5-90 nm range");
    Mosfet mosfet{std::move(mosfet_params)};

    // Matthiessen split per layer at 45 nm (solved by the Conductor
    // from the calibrated anchors). The residual term is dominated by
    // surface/grain-boundary scattering and grows as 1/width; the
    // phonon term is geometry-independent.
    struct LayerScaling
    {
        WireLayer layer;
        OhmMetre rho300_45;
        OhmMetre rho77_45;
        Metre width45;
        Metre thickness45;
        FaradPerMetre capPerM;
        double widthExp; ///< width ~ (node/45)^exp
    };
    const LayerScaling layers[] = {
        // Local wires track the node 1:1.
        {WireLayer::Local, kRhoLocal300, kRhoLocal77, 70 * nm, 140 * nm,
         0.20 * fF / um, 1.0},
        // Semi-global (mid-stack) pitch shrinks roughly with sqrt(node).
        {WireLayer::SemiGlobal, kRhoSemi300, kRhoSemi77, 140 * nm,
         280 * nm, 0.20 * fF / um, 0.5},
        // Global (top-stack) pitch is near node-independent [6].
        {WireLayer::Global, kRhoGlobal300, kRhoGlobal77, 400 * nm,
         800 * nm, 0.328 * fF / um, 0.0},
    };

    std::vector<WireSpec> specs;
    for (const auto &l : layers) {
        double shrink = std::pow(node_nm / 45.0, l.widthExp);
        if (thick_wire_mitigation && l.layer == WireLayer::SemiGlobal)
            shrink *= 2.0; // draw the forwarding wires twice as wide
        const Metre width = l.width45 * shrink;
        const Metre thickness = l.thickness45 * shrink;

        // Split the 45 nm anchors into phonon + residual, then scale
        // only the residual with 1/width.
        Conductor ref{l.rho300_45, l.rho77_45, kDebyeTempCu};
        const OhmMetre residual =
            ref.residualResistivity() * (l.width45 / width);
        const OhmMetre phonon300 = ref.phononResistivity300();
        BlochGruneisen bg{kDebyeTempCu};
        const OhmMetre rho300 = residual + phonon300;
        const OhmMetre rho77 =
            residual + phonon300 * bg.phononFactor(constants::ln2Temp);

        specs.emplace_back(l.layer, width, thickness, l.capPerM,
                           Conductor{rho300, rho77, kDebyeTempCu});
    }
    return Technology{std::move(mosfet), std::move(specs[0]),
                      std::move(specs[1]), std::move(specs[2])};
}

Technology::Technology(Mosfet mosfet, WireSpec local, WireSpec semi_global,
                       WireSpec global)
    : mosfet_(std::move(mosfet)), local_(std::move(local)),
      semiGlobal_(std::move(semi_global)), global_(std::move(global))
{
    fatalIf(local_.layer() != WireLayer::Local,
            "first wire spec must be the local layer");
    fatalIf(semiGlobal_.layer() != WireLayer::SemiGlobal,
            "second wire spec must be the semi-global layer");
    fatalIf(global_.layer() != WireLayer::Global,
            "third wire spec must be the global layer");
}

const WireSpec &
Technology::wire(WireLayer layer) const
{
    switch (layer) {
      case WireLayer::Local:
        return local_;
      case WireLayer::SemiGlobal:
        return semiGlobal_;
      case WireLayer::Global:
        return global_;
    }
    panic("unknown wire layer");
}

double
Technology::transistorSpeedup(Kelvin temp) const
{
    return 1.0 / mosfet_.delayFactor(temp);
}

double
Technology::wireSpeedup(WireLayer layer, Metre length, Kelvin temp,
                        double driver_size) const
{
    WireRC rc{wire(layer), mosfet_, driver_size};
    return rc.speedup(length, temp);
}

double
Technology::repeateredWireSpeedup(WireLayer layer, Metre length,
                                  Kelvin temp) const
{
    RepeateredWire rep{wire(layer), mosfet_};
    return rep.speedup(length, temp);
}

Second
Technology::repeateredWireDelay(WireLayer layer, Metre length,
                                Kelvin temp) const
{
    RepeateredWire rep{wire(layer), mosfet_};
    return rep.delay(length, temp);
}

Second
Technology::repeateredWireDelay(WireLayer layer, Metre length, Kelvin temp,
                                const VoltagePoint &v) const
{
    RepeateredWire rep{wire(layer), mosfet_};
    return rep.optimize(length, temp, v).delay;
}

} // namespace cryo::tech
