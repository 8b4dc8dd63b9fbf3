// The three workloads; each builds its world from the library's public API
// and fills a Report (see perfbench/NOTES.md for what each one measures).
#pragma once

#include "common.hpp"

namespace perfbench {

Report run_handshake(const Options& opts);
Report run_serve(const Options& opts);
Report run_revocation_day(const Options& opts);

}  // namespace perfbench
