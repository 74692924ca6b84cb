// Binary model checkpoints: topology name + flat parameter vector,
// CRC-protected. Enables the train -> predict example split and
// restart-safety tests.
#pragma once

#include <string>

#include "dnn/network.hpp"

namespace cf::core {

/// Writes the network's parameters to `path`. Throws on I/O errors.
void save_checkpoint(const std::string& path, const std::string& topology,
                     const dnn::Network& network);

/// Loads parameters saved with save_checkpoint into `network`. Throws
/// std::runtime_error, leaving `network` untouched, if the file is
/// unreadable, truncated, carries bytes after its checksum, fails the
/// checksum, or names another topology or parameter count.
void load_checkpoint(const std::string& path,
                     const std::string& expected_topology,
                     dnn::Network& network);

}  // namespace cf::core
