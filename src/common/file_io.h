#ifndef COLOSSAL_COMMON_FILE_IO_H_
#define COLOSSAL_COMMON_FILE_IO_H_

#include <string>

#include "common/status.h"

namespace colossal {

// The whole file at `path`, read in one call into a string sized from
// the file's length. NotFound("cannot open file: <path>") when it cannot
// be opened; Internal when the read comes up short.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace colossal

#endif  // COLOSSAL_COMMON_FILE_IO_H_
