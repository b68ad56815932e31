#pragma once

// CLI surface of the experiment service: the subcommands serve, worker,
// daemon, merge, status, gc and soak. `<bench> <subcommand> --help` lists
// a subcommand's options; every one of them is declared once, in a flag
// table (see scenario/cli.hpp).
//
// run_main() forwards here whenever argv[1] names a subcommand, so every
// bench binary carries the full service. worker and daemon install
// SIGTERM/SIGINT handlers for a clean stop (leases released).

#include <string>

namespace dualcast::service {

/// True when `arg` names a subcommand.
bool is_service_command(const char* arg);

/// One line per subcommand, its name and summary, for the driver's --help.
std::string command_list();

/// Parses argv (argv[1] = subcommand) and runs it. Returns a process exit
/// code; never throws.
int service_main(int argc, char** argv);

}  // namespace dualcast::service
