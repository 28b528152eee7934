// Tests for the Sec. V-C side-channel models: stuck-at fault simulation,
// photonic template attack, EM read-out, magnetic probe, thermal retention.
#include <gtest/gtest.h>

#include "camo/locking.hpp"
#include "camo/protect.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "sidechannel/em_imaging.hpp"
#include "sidechannel/fault.hpp"
#include "sidechannel/magnetic.hpp"
#include "sidechannel/photonic.hpp"
#include "sidechannel/temperature.hpp"

namespace gshe::sidechannel {
namespace {

using core::Bool2;
using netlist::GateId;
using netlist::Netlist;

Netlist small_circuit(std::uint64_t seed = 5) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 90;
    spec.seed = seed;
    return netlist::random_circuit(spec);
}

// ---- fault simulation -------------------------------------------------------------

TEST(Fault, StuckOutputForcesValue) {
    Netlist nl("f");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(Bool2::AND(), a, b);
    nl.add_output(g, "y");
    std::vector<std::uint64_t> pi = {~0ULL, ~0ULL};
    EXPECT_EQ(simulate_with_faults(nl, {{g, false}}, pi)[0], 0ULL);
    EXPECT_EQ(simulate_with_faults(nl, {{g, true}}, {0ULL, 0ULL})[0], ~0ULL);
}

TEST(Fault, FaultFreeMatchesSimulator) {
    const Netlist nl = small_circuit();
    netlist::Simulator sim(nl);
    Rng rng(3);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    EXPECT_EQ(simulate_with_faults(nl, {}, pi), sim.run(pi));
}

TEST(Fault, InputFaultsApply) {
    Netlist nl("f");
    const auto a = nl.add_input("a");
    const auto g = nl.add_unary(Bool2::A(), a);
    nl.add_output(g, "y");
    EXPECT_EQ(simulate_with_faults(nl, {{a, true}}, {0ULL})[0], ~0ULL);
}

TEST(Fault, ErrorRateZeroForRedundantFault) {
    // Stuck value on a dead branch: AND(a, 0) with fault sa0 on the gate is
    // indistinguishable when the other input is already 0... use a clean
    // case: fault equal to the forced constant of a masked gate.
    Netlist nl("f");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(Bool2::AND(), a, b);
    const auto h = nl.add_gate(Bool2::OR(), g, a);
    nl.add_output(h, "y");
    // OR(AND(a,b), a) == a, so stuck-at-0 on g never changes the output.
    EXPECT_DOUBLE_EQ(fault_output_error_rate(nl, {{g, false}}, 512, 1), 0.0);
}

TEST(Fault, ErrorRatePositiveForObservableFault) {
    const Netlist nl = small_circuit();
    // Stuck-at on a primary output driver is always observable somewhere.
    const GateId po = nl.outputs()[0].gate;
    EXPECT_GT(fault_output_error_rate(nl, {{po, true}}, 512, 2), 0.0);
}

TEST(Fault, BadGateIdThrows) {
    const Netlist nl = small_circuit();
    std::vector<std::uint64_t> pi(nl.inputs().size(), 0);
    EXPECT_THROW(simulate_with_faults(nl, {{999999, false}}, pi),
                 std::out_of_range);
}

// ---- photonic -------------------------------------------------------------------

TEST(Photonic, ToggleActivityCountsTransitions) {
    Netlist nl("t");
    const auto a = nl.add_input("a");
    const auto g = nl.add_unary(Bool2::NOT_A(), a);
    nl.add_output(g, "y");
    const camo::Key empty_key;
    const auto act = toggle_activity(nl, {}, empty_key, 64 * 4, 1);
    // The inverter toggles whenever its input toggles: ~half the cycles.
    EXPECT_GT(act[g], 64.0);
    EXPECT_LT(act[g], 192.0);
}

TEST(Photonic, LinesHeldAtOneNeverToggle) {
    // A key line pinned to 1 and a Const1 net hold their value on every
    // cycle, so neither may count a toggle (bit 0 of each word is only the
    // seam to the previous word, never an in-word transition).
    Netlist nl("t");
    const auto a = nl.add_input("a");
    const auto k = nl.add_input("k");
    const auto one = nl.add_const(true);
    const auto g = nl.add_gate(Bool2::AND(), a, k);
    nl.add_output(g, "y");
    nl.add_output(one, "one");
    camo::Key key;
    key.bits = {true};
    const auto act = toggle_activity(nl, {k}, key, 256, 1);
    EXPECT_EQ(act[k], 0.0);
    EXPECT_EQ(act[one], 0.0);
    EXPECT_GT(act[g], 0.0);  // AND(a, 1) follows the random input
}

TEST(Photonic, CmosKeyLogicLeaks) {
    const Netlist nl = small_circuit(7);
    const camo::LockedCircuit lc = camo::lock_epic_xor(nl, 12, 3);
    const PhotonicAttackResult res = photonic_template_attack(
        lc.netlist, lc.key_inputs, lc.correct_key, /*cycles=*/64 * 64,
        /*spin_key_logic=*/false, PhotonicModel{}, 5);
    EXPECT_EQ(res.key_bits, 12u);
    EXPECT_GT(res.recovery_rate, 0.8);  // CMOS emission gives the key away
}

TEST(Photonic, SpinKeyLogicDoesNotLeak) {
    const Netlist nl = small_circuit(7);
    const camo::LockedCircuit lc = camo::lock_epic_xor(nl, 12, 3);
    const PhotonicAttackResult res = photonic_template_attack(
        lc.netlist, lc.key_inputs, lc.correct_key, 64 * 64,
        /*spin_key_logic=*/true, PhotonicModel{}, 5);
    // No photons from the key cone: recovery collapses toward coin flips.
    EXPECT_LT(res.recovery_rate, 0.8);
    EXPECT_GT(res.recovery_rate, 0.2);
}

TEST(Photonic, SpinChipEmitsFewerPhotons) {
    const Netlist nl = small_circuit(9);
    const camo::LockedCircuit lc = camo::lock_epic_xor(nl, 8, 4);
    const auto cmos = photonic_template_attack(lc.netlist, lc.key_inputs,
                                               lc.correct_key, 64 * 16, false,
                                               PhotonicModel{}, 6);
    const auto spin = photonic_template_attack(lc.netlist, lc.key_inputs,
                                               lc.correct_key, 64 * 16, true,
                                               PhotonicModel{}, 6);
    EXPECT_LT(spin.mean_photons_per_gate, cmos.mean_photons_per_gate);
}

// ---- EM imaging ------------------------------------------------------------------

TEST(EmImaging, GsheCellSmallerThanSpot) {
    const EmImagingModel m{};
    // 10 nm spot vs 32x50 nm cell: resolvable (factor 1), but shrink the
    // resolution disadvantage and ambiguity appears.
    EXPECT_DOUBLE_EQ(cells_per_spot(m), 1.0);
    EmImagingModel coarse = m;
    coarse.resolution = 100e-9;
    EXPECT_GT(cells_per_spot(coarse), 6.0);
}

TEST(EmImaging, PolymorphismDefeatsSlowReadout) {
    // Footnote 7: 50 ns per pixel vs 1.55 ns device: if functions are
    // re-assigned at ~100 ns scale, a single cell still reads fine...
    EmImagingModel m{};
    EXPECT_GT(cell_read_success(m), 0.4);
    // ...but a full chip of 10^4 cells is hopeless.
    EXPECT_LT(chip_read_success(m, 10000), 1e-100);
}

TEST(EmImaging, StaticChipIsReadable) {
    EmImagingModel m{};
    m.repoly_interval = 1e6;  // effectively static
    EXPECT_NEAR(cell_read_success(m), 1.0, 1e-6);
    EXPECT_GT(chip_read_success(m, 1000), 0.99);
}

TEST(EmImaging, FasterRepolymorphizationHurtsAttacker) {
    EmImagingModel slow{}, fast{};
    slow.repoly_interval = 1e-6;
    fast.repoly_interval = 20e-9;
    EXPECT_GT(cell_read_success(slow), cell_read_success(fast));
}

TEST(EmImaging, TotalReadTimeScalesLinearly) {
    const EmImagingModel m{};
    EXPECT_DOUBLE_EQ(total_read_time(m, 1000), 1000 * 50e-9);
}

// ---- magnetic probe -----------------------------------------------------------------

TEST(Magnetic, FieldDecaysWithDistance) {
    const MagneticProbeModel m{};
    EXPECT_GT(probe_field_at(m, 0.0), probe_field_at(m, 1e-6));
    EXPECT_GT(probe_field_at(m, 1e-6), probe_field_at(m, 3e-6));
}

TEST(Magnetic, FlipRadiusCoversManyDevices) {
    const MagneticProbeModel m{};
    EXPECT_GT(effective_flip_radius(m), m.device_pitch);
    EXPECT_GT(expected_collateral_faults(m), 10.0);
}

TEST(Magnetic, WeakProbeFlipsNothing) {
    MagneticProbeModel weak{};
    weak.probe_field = 1e3;  // below the switching field
    EXPECT_DOUBLE_EQ(effective_flip_radius(weak), 0.0);
    EXPECT_DOUBLE_EQ(expected_collateral_faults(weak), 0.0);
}

TEST(Magnetic, CleanSingleFaultIsImprobable) {
    const MagneticProbeModel m{};
    EXPECT_LT(clean_single_fault_probability(m, 1, 4000), 0.01);
}

TEST(Magnetic, CampaignShowsUncontrollability) {
    const Netlist nl = small_circuit(11);
    const MagneticAttackResult res =
        magnetic_fault_campaign(nl, MagneticProbeModel{}, 40, 3);
    EXPECT_GT(res.mean_faults_per_shot, 2.0);   // collateral damage
    EXPECT_LT(res.single_fault_shots, 0.2);     // precision shots are rare
    EXPECT_GT(res.mean_output_error, 0.0);      // faults do corrupt outputs
}

// ---- temperature ---------------------------------------------------------------------

TEST(Temperature, BarrierIncludesAllContributions) {
    const RetentionModel m{};
    // Crystalline alone: Ku V ~ 5 kT; shape + dipolar push it well past 10 kT.
    EXPECT_GT(m.thermal_stability(300.0), 10.0);
    EXPECT_LT(m.thermal_stability(300.0), 100.0);
}

TEST(Temperature, RetentionDropsWithTemperature) {
    const RetentionModel m{};
    EXPECT_GT(m.retention_time(300.0), m.retention_time(350.0));
    EXPECT_GT(m.retention_time(350.0), m.retention_time(400.0));
}

TEST(Temperature, SurvivalProbabilityIsExponential) {
    const RetentionModel m{};
    const double tau = m.retention_time(400.0);
    EXPECT_NEAR(m.survival_probability(400.0, tau), std::exp(-1.0), 1e-9);
    EXPECT_NEAR(m.survival_probability(400.0, 0.0), 1.0, 1e-12);
}

TEST(Temperature, FlipTimesAreExponentiallyDistributed) {
    // Coefficient of variation 1.0 characterizes the exponential: the
    // disturbances an attacker induces by heating are memoryless noise, not
    // a controllable write mechanism.
    const RetentionModel m{};
    EXPECT_NEAR(flip_time_cv(m, 400.0, 20000, 5), 1.0, 0.05);
}

}  // namespace
}  // namespace gshe::sidechannel
