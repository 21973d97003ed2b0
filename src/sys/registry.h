/**
 * @file
 * String-keyed registry of system models.
 *
 * Each system registers itself under a stable CLI-friendly key
 * ("hybrid", "scratchpipe", ...) together with a one-line description
 * and the SystemSpec key groups it accepts, which drive
 * SystemSpec::validate(). Drivers build systems by name:
 *
 *   auto system = sys::Registry::build(spec, model, hardware);
 *   RunResult r = system->simulate(dataset, stats, iters, warmup);
 *
 * Registration lives next to each system's implementation (see the
 * registerXxx functions referenced from registerBuiltinSystems); a
 * new system adds one Entry and is immediately reachable from spsim,
 * every bench, and the ExperimentRunner with no driver changes.
 *
 * Unknown names fail with a nearest-name suggestion so a typo like
 * "scratchpip" points at the intended system instead of a bare list.
 */

#ifndef SP_SYS_REGISTRY_H
#define SP_SYS_REGISTRY_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/hardware_config.h"
#include "sys/spec.h"
#include "sys/system.h"
#include "sys/system_config.h"

namespace sp::sys
{

/** Global name -> builder table for system models. */
class Registry
{
  public:
    /** Factory signature every system provides. */
    using Builder = std::function<std::unique_ptr<System>(
        const ModelConfig &, const sim::HardwareConfig &,
        const SystemSpec &)>;

    /** One registered system. */
    struct Entry
    {
        /** CLI key, e.g. "scratchpipe". */
        std::string name;
        /** One-line description for --list-systems. */
        std::string description;
        /** KeyGroup bits: the SystemSpec keys that apply to this
         *  system (any other given key fails validate()). */
        unsigned key_groups = 0;
        Builder build;
    };

    /** Register a system; panics on duplicate names. Called by the
     *  builtin registration functions inside instance()'s
     *  initialisation. */
    void addEntry(Entry entry);

    /** Build a system for `spec` (spec.name keys the lookup).
     *  fatal() with a suggestion when the name is unknown; runs
     *  spec.validate() first so misuse fails before construction. */
    static std::unique_ptr<System> build(const SystemSpec &spec,
                                         const ModelConfig &model,
                                         const sim::HardwareConfig &hw);

    /** Registered names, sorted. */
    static std::vector<std::string> names();

    /** Entry for `name`; fatal() with a suggestion when unknown. */
    static const Entry &entry(const std::string &name);

    /** True when `name` is registered. */
    static bool contains(const std::string &name);

    /** Nearest registered name by edit distance (empty when none is
     *  plausibly close). */
    static std::string suggest(const std::string &name);

  private:
    static Registry &instance();

    std::map<std::string, Entry> entries_;
};

} // namespace sp::sys

#endif // SP_SYS_REGISTRY_H
