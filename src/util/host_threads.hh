/**
 * @file
 * How many threads this process can usefully run at once.
 */

#ifndef EBDA_UTIL_HOST_THREADS_HH
#define EBDA_UTIL_HOST_THREADS_HH

namespace ebda {

/**
 * The CPUs the calling thread may run on: the size of its
 * sched_getaffinity mask where the OS has one (so `taskset -c 0`
 * yields 1), else std::thread::hardware_concurrency(); never below 1.
 * Every default worker or helper count derives from this one probe.
 */
unsigned hostThreads();

} // namespace ebda

#endif // EBDA_UTIL_HOST_THREADS_HH
