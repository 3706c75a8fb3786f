// Self-tests of the benchmark's own checks: each plants one fault and
// requires the check that should catch it to report the run as wrong,
// next to a clean control run that must pass.

#ifndef ATK_PERFBENCH_SRC_SELFTEST_H_
#define ATK_PERFBENCH_SRC_SELFTEST_H_

namespace perfbench {

// Returns 0 when every planted fault was caught and every control passed.
int RunSelfTests();

}  // namespace perfbench

#endif  // ATK_PERFBENCH_SRC_SELFTEST_H_
