#ifndef HYRISE_SRC_EXPRESSION_LIKE_MATCHER_HPP_
#define HYRISE_SRC_EXPRESSION_LIKE_MATCHER_HPP_

#include <string>
#include <string_view>
#include <vector>

namespace hyrise {

/// SQL LIKE pattern matcher: '%' matches any sequence, '_' any single
/// character. A pattern without '_' is split at its '%'s once: the first part
/// must be a prefix, the last a suffix, and the parts between are found in
/// order with std::string_view::find. Patterns with '_' use the classic
/// two-pointer algorithm with backtracking at the last '%' — linear in
/// practice, no regex machinery.
class LikeMatcher {
 public:
  explicit LikeMatcher(std::string pattern) : pattern_(std::move(pattern)) {
    if (pattern_.find('_') != std::string::npos) {
      return;
    }
    auto begin = size_t{0};
    while (true) {
      const auto end = pattern_.find('%', begin);
      parts_.push_back(pattern_.substr(begin, end - begin));
      if (end == std::string::npos) {
        break;
      }
      begin = end + 1;
    }
  }

  bool Matches(std::string_view input) const {
    if (parts_.empty()) {
      return MatchesWithBacktracking(pattern_, input);
    }
    const auto& prefix = parts_.front();
    if (parts_.size() == 1) {
      return input == prefix;  // No '%': the pattern is the value.
    }
    const auto& suffix = parts_.back();
    if (input.size() < prefix.size() + suffix.size() || !input.starts_with(prefix) || !input.ends_with(suffix)) {
      return false;
    }
    // The middle parts, leftmost match first, between prefix and suffix.
    const auto middle = input.substr(prefix.size(), input.size() - prefix.size() - suffix.size());
    auto position = size_t{0};
    for (auto part = size_t{1}; part + 1 < parts_.size(); ++part) {
      position = middle.find(parts_[part], position);
      if (position == std::string_view::npos) {
        return false;
      }
      position += parts_[part].size();
    }
    return true;
  }

  /// The general matcher for any pattern.
  static bool MatchesWithBacktracking(std::string_view pattern, std::string_view input) {
    const auto pattern_size = pattern.size();
    const auto input_size = input.size();
    auto pattern_index = size_t{0};
    auto input_index = size_t{0};
    auto star_pattern = std::string::npos;  // Position after the last '%'.
    auto star_input = size_t{0};

    while (input_index < input_size) {
      if (pattern_index < pattern_size &&
          (pattern[pattern_index] == '_' || pattern[pattern_index] == input[input_index])) {
        ++pattern_index;
        ++input_index;
      } else if (pattern_index < pattern_size && pattern[pattern_index] == '%') {
        star_pattern = ++pattern_index;
        star_input = input_index;
      } else if (star_pattern != std::string::npos) {
        pattern_index = star_pattern;
        input_index = ++star_input;
      } else {
        return false;
      }
    }
    while (pattern_index < pattern_size && pattern[pattern_index] == '%') {
      ++pattern_index;
    }
    return pattern_index == pattern_size;
  }

  const std::string& pattern() const {
    return pattern_;
  }

 private:
  std::string pattern_;
  std::vector<std::string> parts_;  // The pattern split at '%'; empty if it has a '_'.
};

}  // namespace hyrise

#endif  // HYRISE_SRC_EXPRESSION_LIKE_MATCHER_HPP_
