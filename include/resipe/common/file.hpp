// Report files that cannot report success on a lost tail.
#pragma once

#include <functional>
#include <ostream>
#include <string>

namespace resipe {

/// Opens `path`, lets `write` fill it, flushes, and only then checks the
/// stream: a file that cannot be opened, or whose buffered tail never
/// reaches the file (a full disk), throws resipe::Error naming `what`
/// and `path`.  Checking before the flush misses the second case — the
/// stream stays good until the buffer is written out.
void write_text_file(const std::string& path, const std::string& what,
                     const std::function<void(std::ostream&)>& write);

}  // namespace resipe
