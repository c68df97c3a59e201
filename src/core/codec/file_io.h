// Raw block-file I/O: the one read and the one write routine behind
// every FileBlockStore layout and mode.
//
// One open/fstat/read/close (or open/write/close) per block, no
// stream/locale machinery. Every read the store does not serve from its
// ring of recent writes is one read_block_file, whose read() lands in a
// fresh Block — the one copy a file-backed read makes; nothing read is
// kept.
#pragma once

#include <filesystem>

#include "common/block.h"
#include "common/bytes.h"

namespace aec {

/// Reads a whole block file with raw POSIX I/O into a fresh Block.
/// Returns a null Block when the file is missing or unreadable
/// (deleted/truncated externally): the store treats such a block as
/// absent.
Block read_block_file(const std::filesystem::path& path);

/// Writes (create-or-truncate) a whole block file with raw POSIX I/O.
/// A new file gets mode 0666 & ~umask, as fopen/ofstream would. No
/// fsync — durability barriers are the store's job (see
/// sync_filesystem). Returns false on any open/write failure.
bool write_block_file(const std::filesystem::path& path,
                      BytesView payload) noexcept;

/// Flushes the filesystem containing `dir` (Linux syncfs). One call
/// per close barrier costs about as much as a single fdatasync, versus
/// one fdatasync *per block file*, which is why the write-behind store
/// syncs the filesystem once at shutdown instead of each file as it
/// lands. Falls back to sync() where syncfs is unavailable.
void sync_filesystem(const std::filesystem::path& dir) noexcept;

}  // namespace aec
