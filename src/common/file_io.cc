#include "common/file_io.h"

#include <fstream>

namespace colossal {

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return Status::NotFound("cannot open file: " + path);
  const std::streamoff size = file.tellg();
  if (size < 0) return Status::Internal("cannot size file: " + path);
  std::string contents(static_cast<size_t>(size), '\0');
  file.seekg(0);
  if (!file.read(contents.data(), size)) {
    return Status::Internal("short read: " + path);
  }
  return contents;
}

}  // namespace colossal
