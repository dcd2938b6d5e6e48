// The benchmark's own checks of its measurement rules (selftest.cpp).
#pragma once

namespace perfbench {

/// Run every self-test; print each failure to stderr.  True when all pass.
bool RunSelfTests();

}  // namespace perfbench
