// The executor layer's thread budget: a lone ThreadBudgetScope gets the
// whole OpenMP team, k concurrent scopes on std::threads split it so their
// teams sum to at most max(cores, k), and leaving a scope restores the
// enclosing cap.  Also the small-work cutoff in front of it.  Plain
// std::thread synchronization only (no OpenMP region is opened), so the
// binary is TSan-clean and carries the "stress" label.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "core/executor.hpp"
#include "core/kernel_utils.hpp"

namespace {

using namespace mgko;


/// Reusable barrier for a fixed party size (std::barrier is C++20 but not
/// in every libstdc++ this builds with).
class Barrier {
public:
    explicit Barrier(int parties) : parties_{parties} {}

    void arrive_and_wait()
    {
        std::unique_lock<std::mutex> lock{mutex_};
        const auto generation = generation_;
        if (++waiting_ == parties_) {
            waiting_ = 0;
            ++generation_;
            cv_.notify_all();
            return;
        }
        cv_.wait(lock, [&] { return generation_ != generation; });
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int parties_;
    int waiting_{0};
    int generation_{0};
};


TEST(ThreadBudget, LoneScopeGetsTheFullTeam)
{
    auto exec = OmpExecutor::create();
    kernels::ThreadBudget budget;
    {
        kernels::ThreadBudgetScope scope{budget};
        EXPECT_EQ(budget.open_scopes(), 1);
        EXPECT_EQ(kernels::exec_threads(exec.get()), omp_get_max_threads());
        EXPECT_EQ(kernels::exec_threads(exec.get()), exec->real_threads());
    }
    EXPECT_EQ(budget.open_scopes(), 0);
}


TEST(ThreadBudget, ConcurrentScopesShareTheCores)
{
    auto exec = OmpExecutor::create();
    const int cores = omp_get_max_threads();
    for (const int k : {2, 3, 4, 8, 16}) {
        kernels::ThreadBudget budget;
        Barrier opened{k};
        Barrier measured{k};
        std::vector<int> granted(static_cast<std::size_t>(k), 0);
        std::vector<std::thread> threads;
        for (int t = 0; t < k; ++t) {
            threads.emplace_back([&, t] {
                kernels::ThreadBudgetScope scope{budget};
                opened.arrive_and_wait();  // all k scopes are open
                granted[static_cast<std::size_t>(t)] =
                    kernels::exec_threads(exec.get());
                measured.arrive_and_wait();  // none closes before all read
            });
        }
        for (auto& thread : threads) {
            thread.join();
        }
        const int total = std::accumulate(granted.begin(), granted.end(), 0);
        EXPECT_LE(total, std::max(cores, k)) << k << " scopes";
        for (const int g : granted) {
            EXPECT_GE(g, 1);
            EXPECT_EQ(g, std::max(1, cores / k)) << k << " scopes";
        }
        EXPECT_EQ(budget.open_scopes(), 0);
    }
}


TEST(ThreadBudget, ClosingAScopeRestoresTheCap)
{
    auto exec = OmpExecutor::create();
    const int cores = omp_get_max_threads();
    kernels::ThreadBudget budget;
    kernels::ThreadBudget other;
    Barrier opened{2};
    Barrier closed{2};
    Barrier done{2};
    int crowded = 0;
    int restored = 0;
    int nested = 0;
    int after_nested = 0;
    std::thread neighbour{[&] {
        kernels::ThreadBudgetScope scope{budget};
        opened.arrive_and_wait();
        closed.arrive_and_wait();
        done.arrive_and_wait();
    }};
    {
        kernels::ThreadBudgetScope scope{budget};
        opened.arrive_and_wait();
        crowded = kernels::exec_threads(exec.get());
        {
            // A nested scope on a second budget draws from that budget
            // alone; its destructor hands the outer one back.
            kernels::ThreadBudgetScope inner{other};
            nested = kernels::exec_threads(exec.get());
        }
        after_nested = kernels::exec_threads(exec.get());
        closed.arrive_and_wait();
    }
    // Outside every scope the calling thread is uncapped again, even
    // though the neighbour's scope is still open.
    restored = kernels::exec_threads(exec.get());
    done.arrive_and_wait();
    neighbour.join();

    EXPECT_EQ(crowded, std::max(1, cores / 2));
    EXPECT_EQ(nested, cores);
    EXPECT_EQ(after_nested, crowded);
    EXPECT_EQ(restored, cores);
    EXPECT_EQ(budget.open_scopes(), 0);
    EXPECT_EQ(other.open_scopes(), 0);
}


TEST(ThreadBudget, ScopesDoNotCapOtherThreads)
{
    auto exec = OmpExecutor::create();
    kernels::ThreadBudget budget;
    kernels::ThreadBudgetScope a{budget};
    kernels::ThreadBudgetScope b{budget};  // two open on this thread
    int unscoped = 0;
    std::thread{[&] { unscoped = kernels::exec_threads(exec.get()); }}.join();
    EXPECT_EQ(unscoped, exec->real_threads());
}


TEST(ThreadBudget, SmallWorkRunsOnTheCallingThread)
{
    auto omp = OmpExecutor::create();
    auto ref = ReferenceExecutor::create();
    const auto cutoff = kernels::small_work_cutoff;
    EXPECT_EQ(kernels::team_size(omp.get(), 0), 1);
    EXPECT_EQ(kernels::team_size(omp.get(), cutoff - 1), 1);
    EXPECT_EQ(kernels::team_size(omp.get(), cutoff),
              kernels::exec_threads(omp.get()));
    EXPECT_EQ(kernels::team_size(ref.get(), 100 * cutoff), 1);
    // Device executors run their kernel bodies on the host's OpenMP
    // threads through the same decision.
    auto cuda = CudaExecutor::create();
    EXPECT_EQ(kernels::team_size(cuda.get(), cutoff - 1), 1);
    EXPECT_EQ(kernels::team_size(cuda.get(), cutoff), omp_get_max_threads());
    // The budget applies above the cutoff.
    kernels::ThreadBudget budget;
    kernels::ThreadBudgetScope first{budget};
    kernels::ThreadBudgetScope second{budget};
    EXPECT_EQ(kernels::team_size(omp.get(), cutoff),
              std::max(1, omp_get_max_threads() / 2));
}


}  // namespace
