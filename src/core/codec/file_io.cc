#include "core/codec/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <span>

namespace aec {

Block read_block_file(const std::filesystem::path& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Block();

  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Block();
  }

  bool complete = true;
  Block out = Block::build(
      static_cast<std::size_t>(st.st_size), [&](std::span<std::uint8_t> into) {
        std::size_t got = 0;
        while (got < into.size()) {
          ssize_t n = ::read(fd, into.data() + got, into.size() - got);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) {  // an error, or truncated under us: absent
            complete = false;
            return;
          }
          got += static_cast<std::size_t>(n);
        }
      });
  ::close(fd);
  if (!complete) return Block();
  return out;
}

bool write_block_file(const std::filesystem::path& path,
                      BytesView payload) noexcept {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0666);
  if (fd < 0) return false;
  std::size_t put = 0;
  while (put < payload.size()) {
    ssize_t n = ::write(fd, payload.data() + put, payload.size() - put);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    put += static_cast<std::size_t>(n);
  }
  return ::close(fd) == 0;
}

void sync_filesystem(const std::filesystem::path& dir) noexcept {
#if defined(__linux__)
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
    return;
  }
#endif
  ::sync();
}

}  // namespace aec
