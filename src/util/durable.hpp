#pragma once

#include <string>
#include <string_view>

namespace rcgp::util {

/// Replaces the file at `path` with `bytes` so that a kill or a power loss
/// at any point leaves the complete old or the complete new file: writes
/// a temp file beside `path` whose name is unique to the call
/// (`<path>.tmp.<pid>.<n>`, so concurrent writers never share one), fsyncs
/// it, renames it over `path` and fsyncs the directory. Concurrent calls
/// each publish a complete file; the last rename wins. On failure the temp
/// file is removed and std::runtime_error naming `path` is thrown. A kill
/// before the rename leaves a stray temp file that no reader opens.
void write_file_durable(const std::string& path, std::string_view bytes);

} // namespace rcgp::util
