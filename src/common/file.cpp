#include "resipe/common/file.hpp"

#include <fstream>

#include "resipe/common/error.hpp"

namespace resipe {

void write_text_file(const std::string& path, const std::string& what,
                     const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path);
  RESIPE_REQUIRE(os.good(), "cannot open " << what << " " << path);
  write(os);
  os.flush();
  RESIPE_REQUIRE(os.good(), "failed writing " << what << " " << path);
}

}  // namespace resipe
