#include "host_threads.hh"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace ebda {

unsigned
hostThreads()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace ebda
