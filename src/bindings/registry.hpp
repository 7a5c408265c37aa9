// The bound-function registry and interpreter model.
//
// Pre-instantiated template combinations are registered under mangled names
// ("csr_apply_double_int32" — the paper's funcxx_int / funcxx_float scheme,
// §5.1).  The Pythonic front end (api.hpp) composes names from dtype
// strings at run time and calls through this registry, paying:
//
//   * the global interpreter lock,
//   * the name composition + hash lookup,
//   * argument boxing / unboxing,
//   * a modeled CPython dispatch constant (MGKO_SIM_PYCALL_NS, default
//     1.2 us — our C++ boxing is faster than a real interpreter frame).
//
// A CallProbe measures the *real* wall time of all of the above (total call
// wall time minus time spent inside actual kernel bodies) and ticks it onto
// the executor's SimClock: the binding overhead of Fig. 5b/5c is measured,
// not assumed.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bindings/boxed.hpp"
#include "core/executor.hpp"
#include "log/event_logger.hpp"

namespace mgko::bind {


/// The global interpreter lock of the simulated Python layer.
std::mutex& gil();

/// Modeled per-call interpreter cost [ns] (env MGKO_SIM_PYCALL_NS).
double interpreter_call_ns();


/// Attaches an event logger to the binding layer itself: every registry
/// call emits on_binding_call_completed with the measured GIL-wait /
/// lookup / boxing breakdown plus the modeled interpreter constant, making
/// the paper's Fig. 5b/5c overhead attributable per call at runtime.  With
/// no logger attached the dispatch path takes no extra clock reads.
void add_logger(std::shared_ptr<log::EventLogger> logger);
void remove_logger(const log::EventLogger* logger);
const std::vector<std::shared_ptr<log::EventLogger>>& get_loggers();


/// Measures host-side overhead of a bound call and charges it to the
/// executor: overhead = (wall time of scope) - (wall time spent inside
/// kernel bodies during the scope) + interpreter constant.  When binding
/// loggers are attached and a call name was given, the destructor also
/// emits the per-call breakdown event.
class CallProbe {
public:
    explicit CallProbe(std::shared_ptr<const Executor> exec,
                       const char* name = nullptr);
    ~CallProbe();

    CallProbe(const CallProbe&) = delete;
    CallProbe& operator=(const CallProbe&) = delete;

private:
    std::shared_ptr<const Executor> exec_;
    const char* name_;
    double wall_start_ns_;
    double kernel_wall_start_ns_;
};


using BoundFunction = std::function<Value(const List&)>;


class Module {
public:
    /// The singleton module, analogous to the pyGinkgoBindings extension
    /// module the paper describes.
    static Module& instance();

    /// Registers a bound function; duplicate names throw.
    void def(const std::string& name, BoundFunction fn);

    /// Looks up and invokes a bound function under the GIL.
    Value call(const std::string& name, const List& args) const;

    bool has(const std::string& name) const;

    /// All registered names (the dir() of the module).
    std::vector<std::string> names() const;

    size_type size() const
    {
        return static_cast<size_type>(functions_.size());
    }

private:
    Module() = default;
    std::unordered_map<std::string, BoundFunction> functions_;
};


/// Registers the full pre-instantiated binding surface (all value/index/
/// format combinations).  Idempotent; called lazily by the API layer.
/// The first call also starts the servers MGKO_TELEMETRY_PORT and
/// MGKO_SOLVE_PORT name (serve::start_from_env).
void ensure_bindings_registered();


}  // namespace mgko::bind
