/**
 * @file
 * Fault injector: replays a FaultPlan against live model objects.
 *
 * The injector is a simulator task that walks the plan in schedule
 * order, sleeping until each event's time and then applying it to the
 * targeted NIC, stack, or machine. Application is synchronous at the
 * event tick, so two runs with the same plan and workload see the same
 * interleaving. Every applied event is counted per kind.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace octo::nic {
class NicDevice;
}
namespace octo::nvme {
class NvmeDriver;
}
namespace octo::os {
class NetStack;
}
namespace octo::topo {
class Machine;
}

namespace octo::fault {

/** The model objects a plan's events act on. Null members simply make
 *  the corresponding event kinds no-ops (still counted as skipped). */
struct Targets
{
    nic::NicDevice* nic = nullptr;
    os::NetStack* stack = nullptr;
    topo::Machine* machine = nullptr;
    nvme::NvmeDriver* nvme = nullptr;
};

class Injector
{
  public:
    Injector(sim::Simulator& sim, Targets targets, FaultPlan plan);

    /** Spawn the replay task (idempotent). A plan that fails
     *  FaultPlan::validate() against the live targets is refused: the
     *  task never starts, `planErrors()` holds the messages, and
     *  `done()` stays false so a soak harness fails loudly instead of
     *  replaying a contradictory schedule. */
    void start();

    /** Validation messages from the last start() attempt (empty when
     *  the plan was accepted). */
    const std::vector<std::string>& planErrors() const
    {
        return planErrors_;
    }

    /** True once every event has been applied. */
    bool done() const { return done_; }

    /** Events applied so far, total and per kind. */
    std::uint64_t applied() const { return applied_.total(); }
    std::uint64_t
    appliedOf(FaultKind k) const
    {
        return perKind_.at(static_cast<std::size_t>(k)).total();
    }

    /** Events whose target object was absent. */
    std::uint64_t skipped() const { return skipped_.total(); }

  private:
    sim::Task<> run();
    void apply(const FaultEvent& ev);

    sim::Simulator& sim_;
    Targets targets_;
    FaultPlan plan_;
    sim::Task<> task_;
    bool started_ = false;
    bool done_ = false;
    std::vector<std::string> planErrors_;

    sim::Counter applied_;
    sim::Counter skipped_;
    std::array<sim::Counter, kFaultKindCount> perKind_;
};

} // namespace octo::fault
