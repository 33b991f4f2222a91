#include "mpid/common/kvframe.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace mpid::common {

namespace {

void put_bytes(std::vector<std::byte>& out, std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  out.insert(out.end(), p, p + s.size());
}

std::string_view view_bytes(std::span<const std::byte> buf, std::size_t offset,
                            std::size_t len) {
  return {reinterpret_cast<const char*>(buf.data()) + offset, len};
}

[[noreturn]] void corrupt() { throw std::runtime_error("kvframe: corrupt frame"); }

/// Reads a varint that must fit and a byte range of that length.
std::string_view read_sized(std::span<const std::byte> buf, std::size_t& offset) {
  const auto len = get_varint(buf, offset);
  if (!len || *len > buf.size() - offset) corrupt();
  const auto view = view_bytes(buf, offset, static_cast<std::size_t>(*len));
  offset += static_cast<std::size_t>(*len);
  return view;
}

}  // namespace

void put_varint(std::vector<std::byte>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::byte>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::byte>(value));
}

std::optional<std::uint64_t> get_varint(std::span<const std::byte> buf,
                                        std::size_t& offset) {
  std::uint64_t value = 0;
  int shift = 0;
  std::size_t pos = offset;
  while (pos < buf.size() && shift < 64) {
    const auto b = static_cast<std::uint8_t>(buf[pos++]);
    value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      offset = pos;
      return value;
    }
    shift += 7;
  }
  return std::nullopt;
}

void KvWriter::append(std::string_view key, std::string_view value) {
  put_varint(buf_, key.size());
  put_varint(buf_, value.size());
  put_bytes(buf_, key);
  put_bytes(buf_, value);
  ++pairs_;
}

std::vector<std::byte> KvWriter::take() noexcept {
  pairs_ = 0;
  return std::move(buf_);
}

void KvWriter::clear() noexcept {
  buf_.clear();
  pairs_ = 0;
}

void KvWriter::reset(std::vector<std::byte>&& recycled) noexcept {
  buf_ = std::move(recycled);
  buf_.clear();
  pairs_ = 0;
}

std::optional<KvView> KvReader::next() {
  if (offset_ == buf_.size()) return std::nullopt;
  const auto klen = get_varint(buf_, offset_);
  const auto vlen = get_varint(buf_, offset_);
  if (!klen || !vlen) corrupt();
  if (*klen + *vlen > buf_.size() - offset_) corrupt();
  KvView view;
  view.key = view_bytes(buf_, offset_, static_cast<std::size_t>(*klen));
  offset_ += static_cast<std::size_t>(*klen);
  view.value = view_bytes(buf_, offset_, static_cast<std::size_t>(*vlen));
  offset_ += static_cast<std::size_t>(*vlen);
  return view;
}

void KvListWriter::begin_group(std::string_view key, std::size_t value_count) {
  if (pending_values_ != 0) {
    throw std::logic_error("KvListWriter: previous group not complete");
  }
  put_varint(buf_, key.size());
  put_bytes(buf_, key);
  put_varint(buf_, value_count);
  pending_values_ = value_count;
  ++groups_;
}

void KvListWriter::add_value(std::string_view value) {
  if (pending_values_ == 0) {
    throw std::logic_error("KvListWriter: add_value without open group");
  }
  put_varint(buf_, value.size());
  put_bytes(buf_, value);
  --pending_values_;
}

void KvListWriter::add_encoded_values(std::span<const std::byte> encoded,
                                      std::size_t value_count) {
  if (pending_values_ == 0) {
    throw std::logic_error(
        "KvListWriter: add_encoded_values without open group");
  }
  if (value_count > pending_values_) {
    throw std::logic_error("KvListWriter: add_encoded_values over-settles");
  }
  buf_.insert(buf_.end(), encoded.begin(), encoded.end());
  pending_values_ -= value_count;
}

std::vector<std::byte> KvListWriter::take() noexcept {
  groups_ = 0;
  pending_values_ = 0;
  return std::move(buf_);
}

void KvListWriter::clear() noexcept {
  buf_.clear();
  groups_ = 0;
  pending_values_ = 0;
}

void KvListWriter::reset(std::vector<std::byte>&& recycled) noexcept {
  buf_ = std::move(recycled);
  buf_.clear();
  groups_ = 0;
  pending_values_ = 0;
}

std::optional<KvListView> KvListReader::next() {
  KvListView view;
  if (!next(view)) return std::nullopt;
  return view;
}

bool KvListReader::next(KvListView& view) {
  if (offset_ == buf_.size()) return false;
  view.key = read_sized(buf_, offset_);
  const auto count = get_varint(buf_, offset_);
  if (!count) corrupt();
  // Every value costs at least one length byte, so a count beyond the
  // remaining bytes is corrupt — check BEFORE reserving, or a hostile
  // count drives reserve() into bad_alloc.
  if (*count > buf_.size() - offset_) corrupt();
  view.values.clear();
  view.values.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    view.values.push_back(read_sized(buf_, offset_));
  }
  return true;
}

}  // namespace mpid::common
