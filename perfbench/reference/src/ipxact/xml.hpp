// Minimal XML tree: enough of the format to write and re-read IP-XACT
// component descriptions (elements, attributes, text; no DTDs, namespaces
// are treated as part of the tag name, as IP-XACT tooling conventionally
// does for the spirit:/ipxact: prefixes).
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace axihc {

class XmlNode {
 public:
  explicit XmlNode(std::string tag) : tag_(std::move(tag)) {}

  [[nodiscard]] const std::string& tag() const { return tag_; }
  [[nodiscard]] const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  void set_attribute(const std::string& key, std::string value);
  [[nodiscard]] const std::string* attribute(const std::string& key) const;

  XmlNode& add_child(std::string tag);
  /// Convenience: adds <tag>text</tag>.
  XmlNode& add_text_child(std::string tag, std::string text);

  [[nodiscard]] const std::vector<std::unique_ptr<XmlNode>>& children() const {
    return children_;
  }

  /// First child with the given tag, or nullptr.
  [[nodiscard]] const XmlNode* child(const std::string& tag) const;
  /// All children with the given tag.
  [[nodiscard]] std::vector<const XmlNode*> children_named(
      const std::string& tag) const;
  /// Text of the first child with the given tag ("" if absent).
  [[nodiscard]] std::string child_text(const std::string& tag) const;

  /// Serializes with 2-space indentation and proper escaping.
  [[nodiscard]] std::string to_string() const;

 private:
  void write(std::string& out, int indent) const;

  std::string tag_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<XmlNode>> children_;
};

/// Parses a single-root XML document (throws ModelError on malformed input).
/// Comments and processing instructions are skipped.
[[nodiscard]] std::unique_ptr<XmlNode> parse_xml(const std::string& input);

/// Escapes &, <, >, ", ' for use in text/attribute content.
[[nodiscard]] std::string xml_escape(const std::string& raw);

}  // namespace axihc
